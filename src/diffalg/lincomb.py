"""Sparse exact linear combinations: the one place the coefficient
representation is decided.

A linear combination is a finite map from hashable keys to nonzero
:class:`fractions.Fraction` coefficients; a key whose coefficient sums to
zero is dropped, so two combinations are equal iff their maps are equal.
:class:`~diffalg.polynomial.Poly` (keys: monomials),
:class:`~diffalg.polynomial.Tensor` (keys: (monomial, variable)) and
:class:`~diffalg.rota_baxter.RBElem` (keys: (word, monomial)) are all
:class:`LinComb` subclasses, and the raw tensor dicts of ``derive_twice``
and ``rb_D_raw`` follow the same rules.

Coefficients enter through :func:`coerce`, which admits ``int`` and
``Fraction`` only: a ``float`` (inexact) or a ``bool`` (not a number) is a
``TypeError``.  Public constructors validate every coefficient; results
the package builds itself go through the trusted constructors
:meth:`LinComb._trusted` and :meth:`LinComb._from_sums`, which do not.

Hot loops accumulate inline, with no call per term::

    out[k] = out[k] + c if k in out else c

and hand the sums to :meth:`LinComb._from_sums` (or :func:`drop_zeros` for
a raw dict), which removes the keys that cancelled.
"""

from __future__ import annotations

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

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping | None = None):
        """The public constructor: every coefficient goes through
        :func:`coerce`, and zero coefficients are dropped."""
        canon = {}
        if terms:
            for k, c in terms.items():
                c = coerce(c)
                if c:
                    canon[k] = c
        self._terms = canon
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict):
        """Adopt terms as is: every coefficient already a nonzero Fraction,
        and the dict owned by the new element from now on."""
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def _from_sums(cls, sums: dict):
        """Adopt an inline-accumulated dict, dropping the keys that cancelled."""
        return cls._trusted(drop_zeros(sums))

    @classmethod
    def zero(cls):
        return cls._trusted({})

    def _operand(self, other):
        """other as an element of this class, or None if it is not one."""
        return other if isinstance(other, type(self)) else None

    def terms(self) -> Iterator:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            if k in out:
                s = out[k] + c
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = c
        return self._trusted(out)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        """Scalar multiplication by an int or Fraction."""
        try:
            scalar = coerce(scalar)
        except TypeError:
            return NotImplemented
        if not scalar:
            return self.zero()
        return self._trusted({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"
