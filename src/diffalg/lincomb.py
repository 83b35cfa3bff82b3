"""Sparse exact linear combinations: the one place the coefficient
representation is decided.

A linear combination is a finite map from hashable keys to nonzero exact
rationals, stored as integer numerators over one shared denominator (as
FLINT's ``fmpq_poly``): ``_num`` maps keys to nonzero ints, ``_den`` is a
positive int, and gcd(_den, *_num.values()) == 1, so each value has one
stored form and ``==`` and hash compare dicts and ints.
:class:`~diffalg.polynomial.Poly` (keys: monomials),
:class:`~diffalg.polynomial.Tensor` (keys: (monomial, variable)) and
:class:`~diffalg.rota_baxter.RBElem` (keys: a ``str`` of interned letters,
(word, monomial) pairs in :meth:`~LinComb.terms`) are all
:class:`LinComb` subclasses.  :meth:`LinComb.terms` yields ``Fraction``
coefficients, and the raw tensor dicts of ``derive_twice`` and ``rb_D_raw``
hold them.

The public constructor ``LinComb(terms)`` is the one way in for a dict of
``Fraction`` coefficients: each goes through :func:`coerce`, which admits
``int`` and ``Fraction`` only (a ``float`` is inexact, a ``bool`` not a
number: ``TypeError``), and :func:`over_lcm` puts them over one
denominator, the one place in the package that does so.  Everything else
runs on integers.  CPython does not cache a tuple's hash, so hot loops
accumulate numerators with one dict lookup and one store::

    out[k] = out.get(k, 0) + c

and a sum merges by dict union, which reuses the stored hashes.  The sums
and their denominator go to :meth:`LinComb._from_ints`, which drops the
keys that cancelled and divides by one gcd; sums kept as parallel lists
of keys and numerators go to :meth:`LinComb._from_lists`, which does the
same on the lists, so each key is hashed once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping


def coerce(value) -> Fraction:
    """The exact coefficient for value: ``Fraction`` as is, ``int`` converted;
    anything else (``float``, ``bool``, ``str``, ...) raises ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational or int, got {type(value).__name__}")


def ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact coefficient, in lowest terms,
    with no ``Fraction`` built; rejects what :func:`coerce` rejects."""
    if type(value) is int:
        return value, 1
    c = coerce(value)
    return c.numerator, c.denominator


def over_lcm(values) -> tuple[list, int] | None:
    """(numerators, d) with values[i] == numerators[i] / d, for d the lcm of
    the denominators, or None unless every value is an int or a Fraction.
    For values in lowest terms no prime of d divides every numerator."""
    if not all(type(c) is Fraction or type(c) is int for c in values):
        return None
    d = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (d // c.denominator) for c in values], d


def drop_zeros(sums: dict) -> dict:
    """Remove, in place, the keys whose accumulated coefficient is zero."""
    for k in [k for k, c in sums.items() if not c]:
        del sums[k]
    return sums


class LinComb:
    """Immutable sparse linear combination with exact rational
    coefficients, the shared base of the package's vector-like types.

    Subclasses add their own product and printing; :meth:`_operand` decides
    which other values an operator accepts (by default: instances of the
    same class)."""

    __slots__ = ("_num", "_den", "_hash")
    # The key of the elements that equal a scalar when _operand lifts
    # scalars (a subclass sets it), so that they hash as that scalar.
    _scalar_key = None

    def __init__(self, terms: Mapping | None = None):
        """The public constructor: every coefficient goes through
        :func:`coerce`, and zero coefficients are dropped."""
        canon = drop_zeros({k: coerce(c) for k, c in (terms or {}).items()})
        nums, self._den = over_lcm(canon.values())
        self._num = dict(zip(canon, nums))
        self._hash = None

    @classmethod
    def _ints(cls, num: dict, den: int):
        """Adopt num over den as is: nonzero numerators, den > 0, gcd 1, and
        the dict owned by the new element from now on."""
        self = object.__new__(cls)
        self._num, self._den, self._hash = num, den, None
        return self

    @classmethod
    def _from_ints(cls, sums: dict, den: int):
        """Adopt integer sums over den > 0: drop the keys that cancelled and
        divide through by the common gcd."""
        if 0 in sums.values():
            drop_zeros(sums)
        g = math.gcd(den, *sums.values())
        if g != 1:
            sums = {k: n // g for k, n in sums.items()}
            den //= g
        return cls._ints(sums, den)

    @classmethod
    def _from_lists(cls, keys: list, nums: list, den: int):
        """:meth:`_from_ints` of dict(zip(keys, nums)) for distinct keys,
        reduced on the lists before the dict is built, so each key is
        hashed once."""
        if 0 in nums:
            keys = [k for k, n in zip(keys, nums) if n]
            nums = [n for n in nums if n]
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        return cls._ints(dict(zip(keys, nums)), den)

    @classmethod
    def zero(cls):
        return cls._ints({}, 1)

    def _operand(self, other):
        """other as an element of this class, or None if it is not one."""
        return other if isinstance(other, type(self)) else None

    def terms(self) -> Iterator:
        """(key, Fraction coefficient) pairs."""
        den = self._den
        return ((k, Fraction(n, den)) for k, n in self._num.items())

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if not self._num or not other._num:  # x + 0 or 0 + x: values are immutable, share x
            return self if not other._num else other
        da, db = self._den, other._den
        den = da if da == db else math.lcm(da, db)
        a = self._num if da == den else {k: n * (den // da) for k, n in self._num.items()}
        b = other._num if db == den else {k: n * (den // db) for k, n in other._num.items()}
        out = a | b  # a shared key keeps a's place and takes b's value
        if len(out) == len(a) + len(b):  # no shared key: nothing cancels, the gcd stays 1
            return self._ints(out, den)
        for k, n in b.items():
            if k in a:
                out[k] = a[k] + n
        return self._from_ints(out, den)

    def __neg__(self):
        return self._ints({k: -n for k, n in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        """Scalar multiplication by an int or Fraction."""
        try:
            a, b = ratio(scalar)
        except TypeError:
            return NotImplemented
        if not a:
            return self.zero()
        if a == b == 1:
            return self
        return self._from_ints({k: n * a for k, n in self._num.items()}, self._den * b)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        """An element that equals a scalar hashes as that scalar does."""
        if self._hash is None:
            num, key = self._num, self._scalar_key
            if key is not None and num.keys() <= {key}:
                n, d = num.get(key, 0), self._den
                self._hash = hash(n if d == 1 else Fraction(n, d))
            else:
                self._hash = hash((self._den, frozenset(num.items())))
        return self._hash

    def __reduce__(self):
        # not the cached hash: a str key hashes differently in another process
        return type(self)._ints, (self._num, self._den)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"
