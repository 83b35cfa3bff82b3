"""The shuffle-algebra Rota-Baxter instance.

Carrier: finite linear combinations of (word, tail) pairs, where a word is
a finite sequence of polynomial letters and the tail is a polynomial.
Words are multilinear in their letters, so elements are canonicalized by
expanding every letter and the tail into monomials.  A stored key is one
``str``, a character per monomial letter and one for the tail, from a
per-process registry that interns each monomial once, under a lock.  A
``str`` keeps its hash and the cyclic collector does not track it.  The
characters never leave the process: terms, printing and pickling decode
them to (tuple-of-monomials, monomial) pairs.

The product shuffles the word parts (sum over all interleavings preserving
each word's internal order, counted with multiplicity) and multiplies the
tails.  Every shuffle runs on :func:`shuffle_words`, whose cost follows
the distinct words, not the interleavings.  The operator P appends the
tail to the word as a new letter and resets the tail to 1; it satisfies
the Rota-Baxter identity

    P(a)·P(b) = P(a·P(b)) + P(P(a)·b)

exactly (weight 0).  The derivation D differentiates only the tail: in
raw form it produces (word, d tail/dx_j, x_j) triples; collapsed to an
endomorphism it multiplies each partial back by its variable, which on a
monomial tail is just scaling by the tail's total degree.  D and P are
incompatible by construction: D(P(a)) = 0, since P leaves a constant tail.

:class:`RBElem` is a :class:`~diffalg.lincomb.LinComb` subclass: the
coefficient representation (integer numerators over one denominator,
``float`` and ``bool`` rejected, cancel-on-zero) is decided there, once.
"""

from __future__ import annotations

import itertools
import operator
import sys
import threading
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import TooManyLetters
from .lincomb import LinComb, drop_zeros, ratio
from .polynomial import (EMPTY_MONO, Mono, Poly, _as_poly, derive, mono_degree,
                         mono_from_exponents, mono_mul, mono_str)

if TYPE_CHECKING:  # the law harness is imported by the two functions that use it
    from .diff_laws import LawReport

# A word: tuple of letters, each letter a monomial of the polynomial algebra.
Word = tuple

# The letter registry: monomial -> character and back.  EMPTY, the empty
# monomial's character, is the tail of a key whose tail is 1.
EMPTY = "\0"
_LETTER, _MONO = {EMPTY_MONO: EMPTY}, {EMPTY: EMPTY_MONO}
_IDS, _LOCK = itertools.count(1), threading.Lock()


def _letter(m: Mono) -> str:
    """The character of monomial m, interned on first use."""
    c = _LETTER.get(m)
    if c is None:
        with _LOCK:
            c = _LETTER.get(m)
            if c is None:
                n = next(_IDS)
                if n > sys.maxunicode:
                    raise TooManyLetters(f"more than {sys.maxunicode:#x} Rota-Baxter letters")
                c = chr(n)
                _MONO[c] = m  # decodable before any key can hold it
                _LETTER[m] = c
    return c


def _key(word: Sequence, tail: Mono) -> str:
    """The stored key of (word, tail)."""
    return "".join(map(_letter, word)) + _letter(tail)


def _pair(key: str) -> tuple[Word, Mono]:
    """The (word, tail) pair a stored key holds."""
    return tuple(map(_MONO.__getitem__, key[:-1])), _MONO[key[-1]]


def shuffle_words(u: Sequence, v: Sequence) -> tuple[list[Sequence], list[int]]:
    """The shuffle of two words as two parallel lists (words, counts): each
    distinct word once, with the number of interleavings of u and v
    (internal order kept) that spell it; the counts sum to
    binom(|u|+|v|, |u|).  The grid appends 1-slices, so a word may be a
    tuple or the ``str`` of a stored key.

    Filled on the prefix grid row by row, from the last-letter recursion

        sh(u[:i], v[:j]) = sh(u[:i-1], v[:j])·u[i-1] + sh(u[:i], v[:j-1])·v[j-1],

    so the work follows the distinct words of each cell, not the
    interleavings.  A cell is two flat lists, its distinct words and their
    counts, not a dict: hashing every intermediate word would make shuffles
    of distinct letters, where nothing merges, 25-50 % slower.  The two
    halves end in different letters unless u[i-1] == v[j-1], so only then
    can they share a word; they are merged before the letter is appended,
    by adding the count lists where both halves hold the same words in the
    same order, else through one dict.  words[j] and counts[j] are
    overwritten in place, so one row of cells is live at a time.  The last
    cell is returned as it is held, not as (word, count) tuples, which the
    collector would track one per word; :func:`shuffle` and :func:`rb_mul`
    zip it into one dict per term pair and add the smaller dicts into the
    largest."""
    if not u or not v:
        return [u + v], [1]
    words, counts = [[v[:j]] for j in range(len(v) + 1)], [[1]] * (len(v) + 1)
    v_letters = [v[j:j + 1] for j in range(len(v))]
    for i, a in enumerate([u[i:i + 1] for i in range(len(u))], 1):
        left, left_n = words[0], counts[0] = [u[:i]], [1]
        for j, b in enumerate(v_letters, 1):
            up, up_n = words[j], counts[j]
            if a != b:
                cell, cell_n = [w + a for w in up] + [w + b for w in left], up_n + left_n
            elif up == left:
                cell, cell_n = [w + a for w in up], list(map(operator.add, up_n, left_n))
            else:
                merged = dict(zip(up, up_n))
                for w, n in zip(left, left_n):
                    merged[w] = merged.get(w, 0) + n
                cell, cell_n = [w + a for w in merged], list(merged.values())
            words[j], counts[j] = left, left_n = cell, cell_n
    return words[-1], counts[-1]


def _merge_into_largest(parts: list[dict]) -> dict:
    """The sum of the coefficient maps parts (one per term pair, each word
    keyed once): the smaller ones are merged into the largest by
    ``dict.update``, which reuses their stored hashes.  Only the shared
    keys are added again, from the values ``update`` overwrote."""
    out = max(parts, key=len, default={})
    overwritten: dict = {}
    for part in parts:
        if part is not out:
            for k in out.keys() & part.keys():
                overwritten[k] = overwritten.get(k, 0) + out[k]
            out.update(part)
    for k, c in overwritten.items():
        out[k] += c
    return out


def _word_ints(letters: Sequence) -> tuple[dict[Word, int], int]:
    """Expand a sequence of polynomial letters multilinearly into a linear
    combination of monomial-letter words, as int numerators over the
    product of the letters' denominators.  A letter given as a bare monomial
    tuple is taken with coefficient 1; a zero letter kills the word.
    Appending a letter merges no words."""
    combo, den = {(): 1}, 1
    for letter in letters:
        if isinstance(letter, Poly):
            expansions, den = letter._num.items(), den * letter._den
        else:
            expansions = ((tuple(letter), 1),)
        combo = {w + (m,): c * cm for w, c in combo.items() for m, cm in expansions}
        if not combo:
            break
    return combo, den


def shuffle(u: Sequence, v: Sequence) -> dict[Word, Fraction]:
    """Shuffle product of two words, as a linear combination of words."""
    (nu, du), (nv, dv) = _word_ints(u), _word_ints(v)
    den, parts = du * dv, []
    for wu, cu in nu.items():
        for wv, cv in nv.items():
            c = Fraction(cu * cv, den)
            # Fraction * int allocates, so a count of 1 keeps c itself
            parts.append({w: c if n == 1 else c * n for w, n in zip(*shuffle_words(wu, wv))})
    return drop_zeros(_merge_into_largest(parts))


def shuffle_term_count(u: Sequence, v: Sequence) -> Fraction:
    """Number of interleavings counted with multiplicity (sum of shuffle
    coefficients, as ints); binom(|u|+|v|, |u|) for monic monomial letters."""
    (nu, du), (nv, dv) = _word_ints(u), _word_ints(v)
    return Fraction(sum(cu * cv * sum(shuffle_words(wu, wv)[1])
                        for wu, cu in nu.items() for wv, cv in nv.items()), du * dv)


class RBElem(LinComb):
    """Immutable element of the Rota-Baxter carrier, in canonical form: ``str``
    keys inside, (word, tail) pairs in and out (``RBElem(terms)``, terms)."""

    __slots__ = ()

    def __init__(self, terms=None):
        LinComb.__init__(self, {_key(w, t): c for (w, t), c in (terms or {}).items()})

    def __reduce__(self):
        # the characters are this process's; the pairs mean the same anywhere
        return type(self), (dict(self.terms()),)

    @classmethod
    def one(cls) -> "RBElem":
        return cls._ints({EMPTY: 1}, 1)

    @classmethod
    def term(cls, letters: Sequence, tail: Poly, coeff=1) -> "RBElem":
        """Build coeff · (word, tail), canonicalizing letters and tail."""
        tail, (a, b) = _as_poly(tail), ratio(coeff)
        words, den = _word_ints(letters)
        tails = [(_letter(m), cm * a) for m, cm in tail._num.items()]
        # the words are distinct, and so are the monomials of tail
        return cls._from_ints({"".join(map(_letter, w)) + t: cw * ct for w, cw in words.items()
                               for t, ct in tails}, den * tail._den * b)

    def terms(self):
        """((word, tail), Fraction coefficient) pairs."""
        return ((_pair(k), c) for k, c in LinComb.terms(self))

    def __mul__(self, other):
        if isinstance(other, RBElem):
            return rb_mul(self, other)
        return LinComb.__mul__(self, other)

    def __str__(self) -> str:
        return " + ".join(f"{c}*([{', '.join(map(mono_str, w))}], {mono_str(t)})"
                          for (w, t), c in sorted(self.terms())) or "0"


def rb_mul(s: RBElem, t: RBElem) -> RBElem:
    """Bilinear product: shuffle on word parts, monomial product on tails."""
    right = [(k[:-1], _MONO[k[-1]], c) for k, c in t._num.items()]
    parts = []
    for k1, c1 in s._num.items():
        w1, t1 = k1[:-1], _MONO[k1[-1]]
        for w2, t2, c2 in right:
            tail, c = _letter(mono_mul(t1, t2)), c1 * c2
            parts.append({w + tail: c * n for w, n in zip(*shuffle_words(w1, w2))})
    return RBElem._from_ints(_merge_into_largest(parts), s._den * t._den)


def rb_P(s: RBElem) -> RBElem:
    """The Rota-Baxter operator: append the tail to the word as a new
    letter and reset the tail to 1, extended linearly; on a stored key the
    tail's character becomes the word's last and EMPTY is appended.
    Distinct keys stay distinct, so nothing merges."""
    return RBElem._ints({k + EMPTY: c for k, c in s._num.items()}, s._den)


def rb_D(s: RBElem) -> RBElem:
    """The tail derivation as an endomorphism: each partial derivative of
    the tail is multiplied back by its variable, which scales a monomial
    tail by its total degree; terms with a constant tail drop out."""
    return RBElem._from_ints({k: c * mono_degree(_MONO[k[-1]])
                              for k, c in s._num.items() if k[-1] != EMPTY}, s._den)


def rb_D_raw(s: RBElem) -> dict:
    """The tail derivation in raw tensor form: a map
    (word, monomial, variable) -> coefficient representing
    sum_j (word, d tail/dx_j, x_j), the :func:`~diffalg.polynomial.derive`
    of each tail.  Distinct (word, tail) keys give distinct keys, so no
    terms merge."""
    return {(w, m, v): c2
            for k, n in s._num.items() for w, t in [_pair(k)]
            for (m, v), c2 in derive(Poly._from_ints({t: n}, s._den)).pairs()}


def random_rbelem(rng, pool: Sequence[str] = ("x", "y"), max_terms: int = 2,
                  max_word: int = 3, max_tail_deg: int = 2) -> RBElem:
    """Seeded random element: up to max_terms terms, words of at most
    max_word monomial letters, tails of degree at most max_tail_deg."""
    from .diff_laws import COEFF_DEN, pick, random_numerator, sample_exponents

    def random_mono(max_deg: int) -> Mono:
        return mono_from_exponents(sample_exponents(rng, pick(pool), max_deg))

    out: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        key = _key([random_mono(2) for _ in range(rng.randint(0, max_word))],
                   random_mono(max_tail_deg))
        out[key] = out.get(key, 0) + random_numerator(rng)
    return RBElem._from_ints(out, COEFF_DEN)


def check_rota_baxter(trials: int, seed: int) -> LawReport:
    """Verify P(a)P(b) = P(aP(b)) + P(P(a)b) on seeded random elements."""
    from .diff_laws import mismatch, run_trials

    def trial(rng):
        a = random_rbelem(rng)
        b = random_rbelem(rng)
        lhs = rb_mul(rb_P(a), rb_P(b))
        rhs = rb_P(rb_mul(a, rb_P(b))) + rb_P(rb_mul(rb_P(a), b))
        return mismatch({"a": a, "b": b}, lhs, rhs)

    return run_trials("rota_baxter_identity", trials, seed, trial)
