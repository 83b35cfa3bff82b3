"""The shared sparse linear-combination core and the exactness contract of
the three types built on it: Poly, Tensor and RBElem."""

import itertools
import math
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cli_runner import run_child
from diffalg.carriers import random_poly, random_series
from diffalg.free_diff import DVar, d_shift
from diffalg.hurwitz import Flavor, Series, psi, psi_inv, sderive, smul
from diffalg.lincomb import LinComb, coerce, drop_zeros
from diffalg.polynomial import (EMPTY_MONO, LinearMap, Poly, Tensor, coderive, derive, eta, flat,
                                mono_from_exponents, mono_lower, mono_mul, partial, sharp)
from diffalg.rng import SplitMix64
from diffalg.rota_baxter import RBElem, rb_D, rb_mul, rb_P

F = Fraction
x, y = eta("x"), eta("y")
MX = (("x", 1),)

INEXACT = [0.1, True, "1/2", None]


def samples():
    """One nonzero element of each LinComb type."""
    return [x * y + 3, derive(x ** 2 * y), RBElem.term([x], y, F(1, 2))]


class TestCoerce:
    def test_exact_values(self):
        assert coerce(3) == F(3) and type(coerce(3)) is Fraction
        half = F(1, 2)
        assert coerce(half) is half

    @pytest.mark.parametrize("value", INEXACT)
    def test_rejects(self, value):
        with pytest.raises(TypeError):
            coerce(value)


class TestExactnessContract:
    @pytest.mark.parametrize("value", [0.1, True])
    def test_constructors_reject(self, value):
        with pytest.raises(TypeError):
            Poly({EMPTY_MONO: value})
        with pytest.raises(TypeError):
            Poly.const(value)
        with pytest.raises(TypeError):
            Poly.monomial({"x": 1}, value)
        with pytest.raises(TypeError):
            Tensor({(EMPTY_MONO, "x"): value})
        with pytest.raises(TypeError):
            RBElem({((), EMPTY_MONO): value})
        with pytest.raises(TypeError):
            RBElem.term([x], y, value)

    @pytest.mark.parametrize("value", [0.1, True])
    def test_scalar_multiplication_rejects(self, value):
        for elem in samples():
            with pytest.raises(TypeError):
                value * elem
            with pytest.raises(TypeError):
                elem * value

    @pytest.mark.parametrize("value", [0.1, True])
    def test_poly_addition_rejects(self, value):
        with pytest.raises(TypeError):
            x + value
        with pytest.raises(TypeError):
            value - x

    def test_exact_scalars_accepted(self):
        for elem in samples():
            assert 2 * elem == elem + elem
            assert elem * F(1, 2) + elem * F(1, 2) == elem
            assert 0 * elem == type(elem).zero()

    def test_bool_exponent_rejected(self):
        with pytest.raises(ValueError):
            x ** True
        with pytest.raises(ValueError):
            x ** False
        s = Series((F(1), F(2), F(3)), Flavor.HURWITZ)
        with pytest.raises(ValueError):
            s ** True
        assert x ** 1 == x
        assert s ** 1 == s


class TestSharedOperations:
    def test_one_copy(self):
        for cls in (Poly, Tensor, RBElem):
            assert issubclass(cls, LinComb)
            for name in ("__eq__", "__hash__", "__neg__", "__sub__", "is_zero", "__bool__"):
                assert name not in vars(cls), (cls.__name__, name)

    def test_zero(self):
        for elem in samples():
            zero = type(elem).zero()
            assert zero.is_zero() and not zero
            assert not elem.is_zero() and elem
            assert elem - elem == zero
            assert (elem - elem).is_zero()
            assert elem + zero == elem

    def test_negation_and_hash(self):
        for elem in samples():
            assert -(-elem) == elem
            assert hash(elem + elem) == hash(2 * elem)
            assert elem + (-elem) == type(elem).zero()

    def test_types_do_not_mix(self):
        p, t, r = samples()
        assert p != t and t != r and r != p
        with pytest.raises(TypeError):
            t + r
        with pytest.raises(TypeError):
            p - t

    def test_cancellation_drops_keys(self):
        p = (x + y) - y
        assert dict(p.terms()) == {MX: F(1)}
        assert dict(((x + y) * (x - y)).terms()) == {(("x", 2),): F(1), (("y", 2),): F(-1)}

    def test_repr(self):
        assert repr(x + 1) == "Poly(x + 1)"
        assert repr(Tensor.of(y, "x")) == "Tensor(y (x) x)"
        assert repr(RBElem.one()) == "RBElem(1*([], 1))"


class TestHelpers:
    def test_drop_zeros_in_place(self):
        sums = {"a": F(1), "b": F(0), "c": F(-2), "d": 0}
        assert drop_zeros(sums) is sums
        assert sums == {"a": F(1), "c": F(-2)}


def counting_keys():
    """A str key type whose __hash__ counts its calls, and the count.  A
    tuple key (a monomial, a word) hashes each of its items on every dict
    operation, so one counted variable per key counts the key's hashes."""
    count = [0]

    class Key(str):
        def __hash__(self):
            count[0] += 1
            return str.__hash__(self)

    return Key, count


class TestHashCounts:
    """Sums reuse the hashes their stores hold, and the accumulate loops
    look each key up once."""

    def test_disjoint_sum_hashes_no_key(self):
        K, count = counting_keys()
        a, b = LinComb({K("p"): F(1, 2), K("q"): 3}), LinComb({K("r"): F(5, 2)})
        count[0] = 0
        s = a + b
        assert count[0] == 0
        assert list(s.terms()) == [("p", F(1, 2)), ("q", 3), ("r", F(5, 2))]

    def test_shared_keys_are_hashed_again_only_once_more(self):
        K, count = counting_keys()
        a = LinComb({K("p"): 1, K("q"): 2, K("r"): 3})
        b = LinComb({K("s"): 4, K("q"): 5, K("t"): 6, K("r"): -1})
        count[0] = 0
        s = a + b
        assert count[0] <= len(b._num) + 2 * 2
        assert dict(s.terms()) == {"p": 1, "q": 7, "r": 2, "s": 4, "t": 6}

    def test_cancelling_and_scaled_operands(self):
        K, _ = counting_keys()
        a = LinComb({K("p"): F(1, 2), K("q"): F(1, 3), K("r"): F(2, 3)})
        b = LinComb({K("q"): F(-1, 3), K("r"): F(1, 4), K("s"): F(1, 4)})
        s = a + b
        assert (s._num, s._den) == ({"p": 6, "r": 11, "s": 3}, 12)
        assert s == LinComb({"p": F(1, 2), "r": F(11, 12), "s": F(1, 4)})
        assert (a + (-a)).is_zero() and (a - a)._num == {}

    def test_order_is_left_keys_then_new_right_keys(self):
        for da, db in ((1, 1), (2, 3)):
            a = LinComb({"p": F(1, da), "q": F(1, da), "r": F(1, da)})
            b = LinComb({"s": F(1, db), "q": F(1, db), "t": F(1, db)})
            assert [k for k, _ in (a + b).terms()] == ["p", "q", "r", "s", "t"]
            assert [k for k, _ in (b + a).terms()] == ["s", "q", "t", "p", "r"]

    def test_merge_into_largest_sums_shared_words(self):
        from diffalg.rota_baxter import _merge_into_largest

        # A is in every part, B in two parts that are not the largest.
        parts = [{"A": 1, "B": 2}, {"A": 3, "C": 1, "D": 1, "E": 1}, {"C": 2, "B": 5, "A": 10, "F": 1}]
        out = _merge_into_largest(parts)
        assert list(out.items()) == [("A", 14), ("C", 3), ("D", 1), ("E", 1), ("B", 7), ("F", 1)]
        assert _merge_into_largest([]) == {}

    def test_accumulate_hashes_each_product_key_at_most_twice(self):
        from diffalg.polynomial import _accumulate

        K, count = counting_keys()
        a = {((K("x"), e),): e for e in (1, 2, 3)}
        count[0] = 0
        out = _accumulate({}, 2, a, a)  # nine term products onto five keys
        assert count[0] <= 2 * 9
        assert {m[0][1]: c for m, c in out.items()} == {2: 2, 3: 8, 4: 20, 5: 24, 6: 18}


# The same two values in each process: x*y + 3 and an RBElem.
BUILD = """
import pickle, sys
from diffalg.polynomial import Poly
from diffalg.rota_baxter import RBElem
x, y = Poly.variable("x"), Poly.variable("y")
def values():
    return x * y + 3, RBElem.term([x, x + y], y, 3) + RBElem.term([y], x * x)
"""
# Hash both, then pickle them.
DUMP = BUILD + """
p, r = values()
hash(p), hash(r)
sys.stdout.write(pickle.dumps((p, r)).hex())
"""
# Number the Rota-Baxter letters in another order, load, compare with fresh values.
LOAD = BUILD + """
RBElem.term([x * x, y, x], x * x * y)
got, fresh = pickle.loads(bytes.fromhex(sys.stdin.read())), values()
for a, b in zip(got, fresh):
    print(a == b, hash(a) == hash(b), a in {b}, str(a) == str(b))
"""


class TestPickle:
    def test_loads_equal_and_hash_alike_in_another_process(self):
        """A value pickled under one hash seed loads, under another, as a
        value that equals and hashes as the same value built there."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {seed: dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed) for seed in "12"}
        dump = run_child("-c", DUMP, env=env["1"])
        assert dump.returncode == 0, dump.stderr
        load = run_child("-c", LOAD, stdin=dump.stdout, env=env["2"])
        assert load.returncode == 0, load.stderr
        assert load.stdout == "True True True True\n" * 2


# -- the integer store -------------------------------------------------------
#
# Every result below is checked three ways: its stored form is canonical
# (positive denominator, nonzero int numerators, gcd 1), its Fraction terms
# equal a reference computed here on plain Fraction dicts, and an equal
# value built through the public constructor is == and hashes alike.

PLAIN = ("w", "x", "y", "z")
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def monos(variables):
    return st.dictionaries(variables, st.integers(1, 3), max_size=3).map(mono_from_exponents)


plain_monos = monos(st.sampled_from(PLAIN))
diff_monos = monos(st.builds(DVar, st.sampled_from(("x", "y")), st.integers(0, 3)))
plain_polys = st.dictionaries(plain_monos, coeffs, max_size=5).map(Poly)
diff_polys = st.dictionaries(diff_monos, coeffs, max_size=5).map(Poly)
tensors = st.dictionaries(st.tuples(plain_monos, st.sampled_from(PLAIN)), coeffs,
                          max_size=5).map(Tensor)
rb_monos = monos(st.sampled_from(("x", "y")))
rbelems = st.dictionaries(st.tuples(st.lists(rb_monos, max_size=3).map(tuple), rb_monos),
                          coeffs, max_size=3).map(RBElem)
linear_maps = st.dictionaries(
    st.sampled_from(PLAIN),
    st.dictionaries(st.sampled_from(PLAIN), coeffs, max_size=2).map(
        lambda img: Poly({((w, 1),): c for w, c in img.items()}))).map(LinearMap)
scalars = st.one_of(st.integers(-12, 12), coeffs)


def acc(pairs) -> dict:
    """Sum (key, Fraction) pairs, dropping the keys that cancel."""
    out: dict = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return {k: Fraction(c) for k, c in out.items() if c}


def check(value, want: dict) -> None:
    num, den = value._num, value._den
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert dict(value.terms()) == want
    twin = type(value)(want)
    assert value == twin and hash(value) == hash(twin)


def ref_mul(a: dict, b: dict) -> dict:
    return acc((mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())


def ref_derive(p: dict) -> dict:
    return acc(((mono_lower(m, i), v), c * e) for m, c in p.items() for i, (v, e) in enumerate(m))


def ref_coderive(t: dict) -> dict:
    return acc((mono_mul(m, ((v, 1),)), c) for (m, v), c in t.items())


def ref_map_var(t: dict, f: LinearMap) -> dict:
    return acc(((m, w), c * a) for (m, v), c in t.items() for w, a in f.linear_image(v))


def interleavings(u, v):
    for chosen in itertools.combinations(range(len(u) + len(v)), len(u)):
        iu, iv = iter(u), iter(v)
        yield tuple(next(iu) if k in chosen else next(iv) for k in range(len(u) + len(v)))


same_type_pairs = st.sampled_from([plain_polys, tensors, rbelems]).flatmap(
    lambda elems: st.tuples(elems, elems))


class TestStore:
    @given(same_type_pairs)
    def test_add_sub_neg(self, pair):
        a, b = pair
        ta, tb = dict(a.terms()), dict(b.terms())
        check(a + b, acc([*ta.items(), *tb.items()]))
        check(a - b, acc([*ta.items(), *((k, -c) for k, c in tb.items())]))
        check(-a, {k: -c for k, c in ta.items()})
        check(a + (b - a), tb)

    @given(st.one_of(plain_polys, tensors, rbelems), scalars)
    def test_scalar(self, a, s):
        want = acc((k, c * s) for k, c in a.terms())
        check(a * s, want)
        check(s * a, want)

    @given(plain_polys, plain_polys)
    def test_poly_product(self, p, q):
        check(p * q, ref_mul(dict(p.terms()), dict(q.terms())))

    @given(plain_polys, st.sampled_from(PLAIN))
    def test_derive_partial_coderive(self, p, v):
        terms = dict(p.terms())
        check(derive(p), ref_derive(terms))
        check(partial(p, v), acc((mono_lower(m, i), c * e) for m, c in terms.items()
                                 for i, (w, e) in enumerate(m) if w == v))
        check(coderive(derive(p)), ref_coderive(ref_derive(terms)))

    @given(tensors, plain_polys, linear_maps)
    def test_tensor_maps(self, t, p, f):
        check(t.map_var(f), ref_map_var(dict(t.terms()), f))
        check(t.scale_poly(p), acc(((mono_mul(m, m2), v), c * c2) for (m, v), c in t.terms()
                                   for m2, c2 in p.terms()))
        check(sharp(f, p), ref_coderive(ref_map_var(ref_derive(dict(p.terms())), f)))

    @given(diff_polys)
    def test_d_shift(self, p):
        check(d_shift(p), acc((mono_mul(mono_lower(m, i), ((DVar(v.base, v.order + 1), 1),)), c * e)
                              for m, c in p.terms() for i, (v, e) in enumerate(m)))

    @given(rbelems, rbelems)
    def test_rota_baxter(self, s, t):
        ts, tt = dict(s.terms()), dict(t.terms())
        check(rb_mul(s, t), acc(((w, mono_mul(t1, t2)), c1 * c2)
                                for (w1, t1), c1 in ts.items() for (w2, t2), c2 in tt.items()
                                for w in interleavings(w1, w2)))
        check(rb_P(s), {(w + (tail,), EMPTY_MONO): c for (w, tail), c in ts.items()})
        check(rb_D(s), acc(((w, tail), c * sum(e for _, e in tail)) for (w, tail), c in ts.items()))

    def test_canonical_form_decides_equality(self):
        half = x * F(1, 2)
        assert (half._num, half._den) == ({MX: 1}, 2)
        assert (half + half)._den == 1
        assert hash(x * F(2, 6) + x * F(1, 6)) == hash(half)
        assert Poly.const(F(-4, 6))._num == {EMPTY_MONO: -2}


def test_hot_paths_build_no_fractions(monkeypatch):
    """Products, sums, int scaling, derive, sharp, d_shift, flat,
    Tensor.map_poly, Tensor.scale_poly and Poly.monomial run on the integer
    store, and so do the Series sum, scalar products, smul, sderive, psi,
    psi_inv, the samplers sample_poly and random_series, and RBElem.term
    on letters with denominators, a sum letter, a bare monomial letter, a
    Fraction coefficient and a scalar tail: none of them constructs a
    Fraction."""
    p = (x * F(1, 2) + y * F(2, 3)) ** 2 + F(5, 4)
    q = x * F(3, 4) - y + 7
    x0, x1, y0 = (Poly.variable(DVar(b, n)) for b, n in (("x", 0), ("x", 1), ("y", 0)))
    dp = x0 * F(1, 3) + x1 ** 2 * F(5, 2) + y0
    g = LinearMap({"x": y * F(1, 2), "y": x * 3 + y * F(2, 5)})
    images = {"x": y * F(1, 2), "y": 3}
    t = derive(p)
    third = F(1, 3)
    sf, sg = (Series(tuple(F(k + 1, 3 + n) for k in range(9)), Flavor.HURWITZ) for n in (0, 4))
    sh = Series(tuple(F(1 - k, 2 + k) for k in range(9)), Flavor.POWER)
    letters, tail, coeff = [x * F(1, 2), x + y * F(2, 3), MX], F(3, 4), F(5, 6)
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for _ in range(3):
        p * q
        p + q
        p + 3
        p * 6
        derive(p)
        sharp(g, p)
        d_shift(d_shift(dp) * dp)
        flat(images, p)
        t.map_poly(lambda r: r * q)
        t.scale_poly(q)
        random_poly(SplitMix64(7), 6)
        random_series(SplitMix64(7), 8, Flavor.POWER)
        Poly.monomial({"x": 2, "y": 1}, 5)
        Poly.monomial({"x": 2}, third)
        sf + sg
        third * sf
        sf * 6
        smul(sf, sg)
        smul(sh, sh)
        sderive(sf)
        sderive(sh)
        psi(sh)
        psi_inv(sf)
        RBElem.term(letters, tail, coeff)
    monkeypatch.undo()
    assert built == []


def test_one_coefficient_path():
    """Fractions are put over a common denominator in lincomb.py alone, and
    the public constructor is the one Fraction-dict way into the store."""
    src = Path(__file__).resolve().parent.parent / "src" / "diffalg"
    users = sorted(f.name for f in src.glob("*.py") if re.search(r"\.denominator\b", f.read_text()))
    assert users == ["lincomb.py"]
    assert not [name for name in ("_trusted", "_from_sums") if hasattr(LinComb, name)]
