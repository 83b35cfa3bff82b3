import gc
import itertools
import math
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffalg import rota_baxter as rb
from diffalg.carriers import rota_baxter_carrier
from diffalg.diff_laws import check_constant_rule, check_kernel_closure, check_leibniz
from diffalg.errors import DiffalgError, TooManyLetters
from diffalg.polynomial import EMPTY_MONO, Poly, mono_mul
from diffalg.rng import SplitMix64
from diffalg.rota_baxter import (
    RBElem,
    check_rota_baxter,
    random_rbelem,
    rb_D,
    rb_D_raw,
    rb_mul,
    rb_P,
    shuffle,
    shuffle_term_count,
    shuffle_words,
)
from diffalg.scalars import binom

F = Fraction
x, y = Poly.variable("x"), Poly.variable("y")
a, b, c = Poly.variable("a"), Poly.variable("b"), Poly.variable("c")

MX = (("x", 1),)
MY = (("y", 1),)


def word(*letters):
    return tuple(next(p.terms())[0] for p in letters)


class TestShuffle:
    def test_two_singletons(self):
        combo = shuffle([a], [b])
        assert combo == {word(a, b): F(1), word(b, a): F(1)}

    def test_two_into_one(self):
        combo = shuffle([a, b], [c])
        assert combo == {word(a, b, c): F(1), word(a, c, b): F(1), word(c, a, b): F(1)}

    def test_empty_word_unit(self):
        combo = shuffle([a, b], [])
        assert combo == {word(a, b): F(1)}

    def test_term_count(self):
        for j in range(5):
            for k in range(5):
                u = [Poly.variable(f"u{i}") for i in range(j)]
                v = [Poly.variable(f"v{i}") for i in range(k)]
                assert shuffle_term_count(u, v) == binom(j + k, j)

    def test_term_count_is_the_sum_of_the_shuffle(self):
        """shuffle_term_count sums int counts over one denominator; it is
        the sum of shuffle's coefficients, for letters with denominators,
        sums of monomials, bare monomials, zero letters and repeated
        letters."""
        rng = SplitMix64(37)
        pool = (x, x, a * F(1, 2), x * F(1, 2) + y * F(2, 3), a * b * F(-3, 4), MX, Poly.zero())
        for _ in range(200):
            u, v = ([rng.choice(pool) for _ in range(rng.randint(0, 4))] for _ in range(2))
            got = shuffle_term_count(u, v)
            assert type(got) is F
            assert got == sum(shuffle(u, v).values(), F(0))
        for j in range(5):
            for k in range(5):
                # each letter's coefficients sum to its factor of the count
                assert shuffle_term_count([x] * j, [MX] * k) == binom(j + k, j)
                assert shuffle_term_count([x * F(1, 2)] * j, [x + a * F(2, 3)] * k) == (
                    binom(j + k, j) * F(1, 2) ** j * F(5, 3) ** k)

    def test_sum_letters_cancel(self):
        assert shuffle([x + y], [x - y]) == {word(x, x): F(2), word(y, y): F(-2)}

    def test_multilinear_letters(self):
        # a word with a sum letter equals the sum of monomial-letter words
        assert shuffle([a + b], []) == {word(a): F(1), word(b): F(1)}
        assert shuffle([2 * a], []) == {word(a): F(2)}

    def test_commutative_associative(self):
        rng = SplitMix64(3)
        for _ in range(10):
            s, t, u = (random_rbelem(rng, max_terms=1, max_word=2) for _ in range(3))
            assert rb_mul(s, t) == rb_mul(t, s)
            assert rb_mul(rb_mul(s, t), u) == rb_mul(s, rb_mul(t, u))


def interleavings(u, v):
    """Every interleaving of u and v, one per choice of the positions that
    u's letters take: binom(|u|+|v|, |u|) words, repeats included."""
    n = len(u) + len(v)
    for positions in itertools.combinations(range(n), len(u)):
        letters_u, letters_v = iter(u), iter(v)
        chosen = set(positions)
        yield tuple(next(letters_u) if k in chosen else next(letters_v) for k in range(n))


def raw_scale(raw: dict, s: RBElem) -> dict:
    """Multiply a raw tensor by an element on the non-variable slots:
    (w, t, v) · (w', t') = (w shuffled w', t·t', v), which is :func:`rb_mul`
    on the (w, t) part of each variable's slot.  Used to state the Leibniz
    rule for the raw form; the package itself does not need it."""
    slots: dict = {}
    for (w, t, v), c in raw.items():
        slots.setdefault(v, {})[(w, t)] = c
    return {(w, t, v): c
            for v, slot in slots.items()
            for (w, t), c in rb_mul(RBElem(slot), s).terms()}


def brute_product(terms1, terms2):
    """Sum c1·c2 over every interleaving of every term pair: a key
    (w1, t1, *rest) times (w2, t2) adds to (w, t1·t2, *rest) for each
    interleaving w of w1 and w2.  Cancelled keys are dropped."""
    out: dict = {}
    for (w1, t1, *rest), c1 in terms1:
        for (w2, t2), c2 in terms2:
            for w in interleavings(w1, w2):
                k = (w, mono_mul(t1, t2), *rest)
                out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


words = st.lists(st.sampled_from("abc"), max_size=6).map(tuple)
small_words = st.integers(1, 3).flatmap(
    lambda k: st.tuples(*[st.lists(st.sampled_from("abc"[:k]), max_size=6).map(tuple)] * 2))

# Elements over two letters, x and y, with small coefficients: repeated
# letters merge interleavings, and opposite coefficients cancel.
letters = st.sampled_from([(("x", 1),), (("y", 1),)])
tails = st.sampled_from([EMPTY_MONO, (("x", 1),), (("y", 2),), (("x", 1), ("y", 1))])
rb_elems = st.dictionaries(
    st.tuples(st.lists(letters, max_size=4).map(tuple), tails),
    st.sampled_from([-2, -1, 1, 2]), max_size=4).map(RBElem)


def as_counts(result) -> dict:
    """The kernel's parallel (words, counts) lists as a dict, after checking
    that each word is listed once and each count is a positive int."""
    words, counts = result
    assert len(set(words)) == len(words) == len(counts)
    assert all(type(n) is int and n > 0 for n in counts)
    return dict(zip(words, counts))


class TestKernel:
    @given(small_words)
    def test_matches_enumeration(self, pair):
        u, v = pair
        assert as_counts(shuffle_words(u, v)) == dict(Counter(interleavings(u, v)))

    @given(words, words)
    def test_counts_sum_to_binomial(self, u, v):
        counts = as_counts(shuffle_words(u, v))
        assert sum(counts.values()) == math.comb(len(u) + len(v), len(u))

    def test_repeated_letter_is_one_word(self):
        assert as_counts(shuffle_words(("a",) * 8, ("a",) * 8)) == {("a",) * 16: 12870}

    def test_long_words_do_not_recurse(self):
        # an interleaving recursion would need one frame per letter here
        result = shuffle_words(("a",) * 2, ("a",) * 1200)
        assert as_counts(result) == {("a",) * 1202: math.comb(1202, 2)}

    @given(rb_elems, rb_elems)
    def test_rb_mul_matches_enumeration(self, s, t):
        assert rb_mul(s, t) == RBElem(brute_product(s.terms(), list(t.terms())))

    @given(rb_elems, rb_elems)
    def test_raw_scale_matches_enumeration(self, s, t):
        raw = rb_D_raw(s)
        assert raw_scale(raw, t) == brute_product(raw.items(), list(t.terms()))


class Letter:
    """A word letter that records whether the cyclic collector was on each
    time the grid compared it, and raises from == when told to."""

    def __init__(self, name, seen, fail=False):
        self.name, self.seen, self.fail = name, seen, fail

    def __eq__(self, other):
        self.seen.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("letter comparison failed")
        return self.name == other.name

    def __hash__(self):
        return hash(self.name)


@pytest.fixture
def collector(request):
    """The cyclic collector switched on or off, as the test's parameter
    says, and restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("collector", [True, False], ids=["on", "off"], indirect=True)
class TestCollectorUntouched:
    """shuffle_words leaves the cyclic collector as the caller set it: every
    comparison the grid makes sees that setting, and so does the caller
    afterwards, also when a letter raises."""

    def letters(self, names, seen, fail=False):
        return tuple(Letter(n, seen, fail) for n in names)

    def test_grid_sees_the_callers_setting(self, collector):
        seen = []
        words, counts = shuffle_words(self.letters("aba", seen), self.letters("ba", seen))
        assert len(words) == len(counts) and sum(counts) == math.comb(5, 2)
        assert seen and all(s is collector for s in seen)
        assert gc.isenabled() is collector

    def test_a_raising_letter_leaves_it_as_it_was(self, collector):
        seen = []
        with pytest.raises(RuntimeError, match="letter comparison failed"):
            shuffle_words(self.letters("ab", seen, fail=True), self.letters("b", seen))
        assert seen == [collector]
        assert gc.isenabled() is collector

    def test_products_leave_it_as_it_was(self, collector):
        shuffle_words(("a",) * 8, ("a", "b") * 4)
        rb_mul(RBElem.term([x, x + y], y), RBElem.term([y, x], x))
        assert gc.isenabled() is collector


class TestNoPairTuples:
    """shuffle_words returns its last cell as two lists, not as one tracked
    (word, count) tuple per word: the 12,870 words of two 8-letter words of
    distinct letters allocate next to nothing the collector counts, and a
    product of two such words starts no collection."""

    @pytest.mark.parametrize("collector", [False], ids=["off"], indirect=True)
    def test_shuffle_allocates_no_tuple_per_word(self, collector):
        before = gc.get_count()[0]
        result = shuffle_words("abcdefgh", "ijklmnop")
        assert gc.get_count()[0] - before < 100
        assert len(as_counts(result)) == math.comb(16, 8)

    @pytest.mark.parametrize("collector", [True], ids=["on"], indirect=True)
    def test_rb_mul_starts_no_collection(self, collector):
        s = RBElem.term([Poly.variable(n) for n in "abcdefgh"], 1)
        t = RBElem.term([Poly.variable(n) for n in "ijklmnop"], 1)
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            product = rb_mul(s, t)
        finally:
            gc.callbacks.remove(count)
        assert len(product._num) == math.comb(16, 8)
        assert started == []


class TestTerm:
    def test_is_the_multilinear_expansion(self):
        """RBElem.term(letters, tail, coeff) is the public constructor on
        every choice of one monomial per letter and one of the tail, with
        the product of their coefficients times coeff: for letters with
        denominators, sum letters, bare monomials and zero letters, scalar
        tails and a zero coefficient."""
        rng = SplitMix64(41)
        pool = (x, a * F(1, 2), x * F(1, 2) + y * F(2, 3), a * b * F(-3, 4), MX, Poly.zero())
        tails = (Poly.one(), x * F(3, 2) - y, F(5, 6), 4, 0)
        coeffs = (1, -2, F(7, 3), 0)
        for _ in range(200):
            letters = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            tail, coeff = rng.choice(tails), rng.choice(coeffs)
            expansions = [[(l, 1)] if isinstance(l, tuple) else list(l.terms()) for l in letters]
            want = {(tuple(m for m, _ in choice), mt): math.prod(c for _, c in choice) * ct * coeff
                    for choice in itertools.product(*expansions)
                    for mt, ct in (Poly.one() * tail).terms()}
            assert RBElem.term(letters, tail, coeff) == RBElem(want)


class TestProduct:
    def test_tail_only(self):
        s = RBElem.term([], x)
        t = RBElem.term([], y)
        assert rb_mul(s, t) == RBElem.term([], x * y)

    def test_word_only(self):
        s = RBElem.term([a], Poly.one())
        t = RBElem.term([b], Poly.one())
        want = RBElem({(word(a, b), EMPTY_MONO): F(1), (word(b, a), EMPTY_MONO): F(1)})
        assert rb_mul(s, t) == want

    def test_mixed(self):
        s = RBElem.term([], x)
        t = RBElem.term([a], y)
        assert rb_mul(s, t) == RBElem.term([a], x * y)

    def test_term_pairs_cancel(self):
        # x·(-x) and y·y give the squares; x·y and y·(-x) cancel
        s = RBElem.term([x], 1) + RBElem.term([y], 1)
        t = RBElem.term([y], 1) + RBElem.term([x], 1, -1)
        assert rb_mul(s, t) == RBElem.term([y, y], 1, 2) + RBElem.term([x, x], 1, -2)

    def test_order_of_terms_does_not_matter(self):
        # Built in this order, the largest term pair is xy·yx, the second
        # one, and xyx·y merges into it; reversed, the largest comes first.
        s_terms = [((word(x, y), EMPTY_MONO), F(1)), ((word(x, y, x), EMPTY_MONO), F(3))]
        t_terms = [((word(y), EMPTY_MONO), F(2)), ((word(y, x), EMPTY_MONO), F(-1))]
        forward = rb_mul(RBElem(dict(s_terms)), RBElem(dict(t_terms)))
        backward = rb_mul(RBElem(dict(s_terms[::-1])), RBElem(dict(t_terms[::-1])))
        assert forward == backward == RBElem(brute_product(s_terms, t_terms))
        assert str(forward) == str(backward)

    def test_unit(self):
        rng = SplitMix64(5)
        for _ in range(10):
            s = random_rbelem(rng)
            assert rb_mul(RBElem.one(), s) == s


class TestP:
    def test_single_append(self):
        assert rb_P(RBElem.term([], x)) == RBElem.term([x], Poly.one())

    def test_append_unit_letter(self):
        got = rb_P(rb_P(RBElem.term([], x)))
        assert got == RBElem.term([x, Poly.one()], Poly.one())

    def test_d_of_p_vanishes(self):
        rng = SplitMix64(7)
        for _ in range(40):
            s = random_rbelem(rng)
            assert rb_D(rb_P(s)).is_zero()

    def test_identity_worked_example(self):
        ea = RBElem.term([], x)
        eb = RBElem.term([], y)
        lhs = rb_mul(rb_P(ea), rb_P(eb))
        want = RBElem({(word(x, y), EMPTY_MONO): F(1), (word(y, x), EMPTY_MONO): F(1)})
        assert lhs == want
        assert rb_P(rb_mul(ea, rb_P(eb))) == RBElem({(word(y, x), EMPTY_MONO): F(1)})
        assert rb_P(rb_mul(rb_P(ea), eb)) == RBElem({(word(x, y), EMPTY_MONO): F(1)})

    def test_identity_unit_tails(self):
        e = RBElem.term([], Poly.one())
        lhs = rb_mul(rb_P(e), rb_P(e))
        rhs = rb_P(rb_mul(e, rb_P(e))) + rb_P(rb_mul(rb_P(e), e))
        assert lhs == rhs
        assert lhs == RBElem({(word(Poly.one(), Poly.one()), EMPTY_MONO): F(2)})

    def test_identity_zero(self):
        zero = RBElem.zero()
        assert rb_mul(rb_P(zero), rb_P(zero)) == RBElem.zero()

    def test_identity_random(self):
        report = check_rota_baxter(60, 11)
        assert report.passed, report.to_json()
        assert report.trials == 60


class TestD:
    def test_raw_form(self):
        got = rb_D_raw(RBElem.term([], x ** 2))
        assert got == {((), MX, "x"): F(2)}

    def test_constant_tail(self):
        assert rb_D(RBElem.term([a, b], Poly.one())).is_zero()
        assert rb_D_raw(RBElem.term([a, b], Poly.one())) == {}

    def test_endomorphism_scales_by_degree(self):
        assert rb_D(RBElem.term([], x ** 2 * y)) == 3 * RBElem.term([], x ** 2 * y)

    def test_raw_leibniz(self):
        s = RBElem.term([], x)
        t = RBElem.term([], y)
        got = rb_D_raw(rb_mul(s, t))
        want = {}
        for key, coeff in raw_scale(rb_D_raw(s), t).items():
            want[key] = want.get(key, 0) + coeff
        for key, coeff in raw_scale(rb_D_raw(t), s).items():
            want[key] = want.get(key, 0) + coeff
        assert got == {((), MY, "x"): F(1), ((), MX, "y"): F(1)}
        assert got == want

    def test_raw_leibniz_random(self):
        rng = SplitMix64(13)
        for _ in range(25):
            s = random_rbelem(rng, max_terms=2, max_word=2)
            t = random_rbelem(rng, max_terms=2, max_word=2)
            got = rb_D_raw(rb_mul(s, t))
            want: dict = {}
            for raw, other in ((rb_D_raw(s), t), (rb_D_raw(t), s)):
                for key, coeff in raw_scale(raw, other).items():
                    acc = want.get(key, 0) + coeff
                    if acc:
                        want[key] = acc
                    elif key in want:
                        del want[key]
            assert got == want

    def test_endomorphism_leibniz(self):
        rng = SplitMix64(17)
        for _ in range(25):
            s = random_rbelem(rng)
            t = random_rbelem(rng)
            assert rb_D(rb_mul(s, t)) == rb_mul(s, rb_D(t)) + rb_mul(rb_D(s), t)


class TestCarrierRegistration:
    def test_constant_and_leibniz_suites(self):
        carrier = rota_baxter_carrier()
        assert check_constant_rule(carrier, 1, 19).passed
        assert check_leibniz(carrier, 60, 19).passed
        assert check_kernel_closure(carrier, 30, 19).passed


# (word, tail) dicts over a few monomials, with nonzero coefficients.
monos = st.sampled_from([EMPTY_MONO, MX, MY, (("x", 2),), (("x", 1), ("y", 3))])
pair_dicts = st.dictionaries(st.tuples(st.lists(monos, max_size=5).map(tuple), monos),
                             st.fractions(max_denominator=6).filter(bool), max_size=5)


class TestKeyLayout:
    """A stored key is one str of interned letters; every way in and out
    of an element speaks (word, tail) pairs."""

    @pytest.fixture
    def registry(self, monkeypatch):
        """Copies of the letter registry, so a test's letters go with it."""
        for name in ("_LETTER", "_MONO"):
            monkeypatch.setattr(rb, name, dict(getattr(rb, name)))

    @given(pair_dicts)
    def test_terms_round_trip(self, d):
        elem = RBElem(d)
        assert dict(elem.terms()) == d
        assert all(type(k) is str for k in elem._num)
        assert sorted(map(len, elem._num)) == sorted(len(w) + 1 for w, _ in d)

    @given(small_words)
    def test_str_words_shuffle_as_tuple_words(self, pair):
        u, v = pair
        as_str = as_counts(shuffle_words("".join(u), "".join(v)))
        assert all(type(w) is str for w in as_str)
        assert {tuple(w): n for w, n in as_str.items()} == as_counts(shuffle_words(u, v))

    def test_ids_stay_injective_under_threads(self, registry):
        """4 threads intern 500 new monomials each, half of them shared by
        every thread, with the interpreter switching threads often.  The
        variables hash in Python code that lets another thread run, so a
        thread is switched out between looking a monomial up and storing
        its character."""

        class Var(str):
            def __hash__(self):
                time.sleep(0)
                return str.__hash__(self)

        shared = [((Var("shared"), i),) for i in range(1, 251)]
        got: list = [None] * 4
        together = threading.Barrier(4, timeout=60)

        def intern(t):
            own = [((Var(f"own{t}"), i),) for i in range(1, 251)]
            got[t] = seen = {}
            for pair in zip(shared, own):
                together.wait()  # all four threads reach each shared monomial at once
                for m in pair:
                    seen[m] = rb._letter(m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=intern, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(interval)
        letters = {}
        for seen in got:
            for m, c in seen.items():
                assert letters.setdefault(m, c) == c  # one character per monomial
        assert len(letters) == 250 + 4 * 250
        assert len(set(letters.values())) == len(letters)  # one monomial per character
        assert all(rb._MONO[c] == m for m, c in letters.items())

    def test_typed_error_past_the_last_character(self, registry, monkeypatch):
        monkeypatch.setattr(rb, "_IDS", itertools.count(sys.maxunicode))
        last = (("last", 1),)
        assert rb._letter(last) == chr(sys.maxunicode)
        with pytest.raises(TooManyLetters) as err:
            RBElem.term([x], Poly.monomial({"beyond": 1}))
        assert isinstance(err.value, DiffalgError)
        assert (("beyond", 1),) not in rb._LETTER
        assert dict(RBElem({((last,), EMPTY_MONO): 1}).terms()) == {((last,), EMPTY_MONO): 1}
