"""Free differential algebras: polynomials in derivative-indexed variables.

A differential polynomial is an ordinary :class:`~diffalg.polynomial.Poly`
whose variables are :class:`DVar` values: a base name together with a
derivative order, so ``DVar("x", 2)`` is the second derivative x''.  The
shift derivation bumps one order per Leibniz summand:

    d_shift((x,0)·(y,1)) = (x,1)·(y,1) + (x,0)·(y,2).

The same derivation also arises from the categorical recipe (derive, bump
the tensor variable, multiply back in); :func:`d_shift_via_sharp` computes
it that way and agrees with :func:`d_shift` on every input, which the test
suite uses as an oracle.

On top of the carrier sit the free-algebra structure maps: ``alpha`` embeds
plain polynomials at order 0, ``beta`` flattens one level of nesting (outer
variables whose base names encode inner differential polynomials), and
``extend`` evaluates a differential polynomial in any differential algebra
by sending (x, n) to the n-th derivative of the chosen image of x.
"""

from __future__ import annotations

import json
from typing import Callable, Mapping, NamedTuple

from .errors import MalformedNesting, UnboundVariable
from .polynomial import (LinearMap, Poly, evaluate, mono_from_exponents, rename_vars, sharp,
                         substitute)


class DVar(NamedTuple("DVar", [("base", str), ("order", int)])):
    """A derivative-indexed variable: (base name, derivative order).  A base
    that is not a str and an order that is not an int (a bool is not) raise
    TypeError, and a negative order ValueError, when the variable is made."""

    __slots__ = ()

    def __new__(cls, base: str, order: int) -> "DVar":
        if not isinstance(base, str):
            raise TypeError(f"base name must be a str, got {type(base).__name__}")
        if type(order) is not int:
            raise TypeError(f"derivative order must be an int, got {type(order).__name__}")
        if order < 0:
            raise ValueError(f"derivative order must be non-negative, got {order}")
        return tuple.__new__(cls, (base, order))

    @classmethod
    def _make(cls, iterable) -> "DVar":  # so _replace is checked too
        return cls(*iterable)

    def _successor(self) -> "DVar":
        """(x, n+1) for self = (x, n), built without the checks: a checked
        base stays a str and a checked order plus one an int above 0."""
        return tuple.__new__(DVar, (self[0], self[1] + 1))

    def __str__(self) -> str:
        if self.order <= 3:
            return self.base + "'" * self.order
        return f"{self.base}^({self.order})"


def dvar(base: str, order: int = 0) -> Poly:
    """The differential polynomial consisting of one derivative variable;
    bad input raises as :class:`DVar` does."""
    return Poly.variable(DVar(base, order))


def d_shift(p: Poly) -> Poly:
    """The shift derivation, directly by the Leibniz expansion.

    On a monomial, each occurrence of a variable (x, n) contributes its
    exponent times the monomial with one factor bumped to (x, n+1).

    Keys are built by insertion, not by a product: (x, n+1) sorts right
    after (x, n) with nothing in between, so the bumped factor goes
    directly after position i, merging into the next factor when that is
    already (x, n+1).  Each bumped variable is its variable's
    :meth:`DVar._successor`: the variable passed DVar's checks when it was
    made, so its successor needs none.
    """
    out: dict = {}
    bump: dict = {}  # v -> (x, n+1), built once per variable
    for m, c in p._num.items():
        for i, (v, e) in enumerate(m):
            bumped = bump.get(v)
            if bumped is None:
                bumped = bump[v] = v._successor()
            head = m[:i] + ((v, e - 1),) if e > 1 else m[:i]
            rest = m[i + 1:]
            if rest and rest[0][0] == bumped:
                key = head + ((bumped, rest[0][1] + 1),) + rest[1:]
            else:
                key = head + ((bumped, 1),) + rest
            ce = c if e == 1 else c * e
            out[key] = out.get(key, 0) + ce
    return Poly._from_ints(out, p._den)


def d_shift_via_sharp(p: Poly) -> Poly:
    """The shift derivation by the categorical recipe: derive, bump each
    tensor variable's order by one, multiply back in.  Extensionally equal
    to :func:`d_shift`."""
    return sharp(LinearMap({v: dvar(v.base, v.order + 1) for v in p.variables()}), p)


def alpha(p: Poly) -> Poly:
    """Include a plain polynomial as a differential polynomial of order 0,
    renaming every variable x to (x, 0).  On a single variable this is the
    generator embedding; on products it is the induced algebra morphism."""
    return rename_vars(p, lambda v: DVar(v, 0))


def natural_map(d: Callable, a, n_max: int) -> list:
    """The derivative tower [a, D(a), D²(a), ..., D^n_max(a)]."""
    if n_max < 0:
        raise ValueError(f"tower order must be non-negative, got {n_max}")
    out = [a]
    for _ in range(n_max):
        out.append(d(out[-1]))
    return out


# -- nesting: differential polynomials over differential polynomials -------
#
# An outer variable (E, n) carries an inner differential polynomial
# serialized into its base name E.  The serialization is canonical JSON of
# the sorted term list, so equal inner polynomials encode to equal strings
# and nesting can be iterated (encoded names nest inside encoded names).


def encode_nested(p: Poly) -> str:
    """Serialize a differential polynomial for use as an outer base name."""
    terms_map = dict(p.terms())
    terms = []
    for m in sorted(terms_map):
        c = terms_map[m]
        terms.append([str(c), [[v.base, v.order, e] for v, e in m]])
    return json.dumps(terms, separators=(",", ":"))


def decode_nested(s: str) -> Poly:
    """Inverse of :func:`encode_nested`; raises :class:`MalformedNesting`
    if the string is not a serialized differential polynomial."""
    from fractions import Fraction

    try:
        data = json.loads(s)
        terms = {}
        for coeff_s, mono in data:
            if not isinstance(coeff_s, str):
                raise ValueError("coefficient is not a string")
            exps = {}
            for base, order, e in mono:
                v = DVar(base, order)  # raises on a bad base or order
                if type(e) is not int or e <= 0:
                    raise ValueError("bad exponent")
                exps[v] = exps.get(v, 0) + e
            m = mono_from_exponents(exps)
            terms[m] = terms.get(m, 0) + Fraction(coeff_s)
        return Poly(terms)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise MalformedNesting(f"not an encoded differential polynomial: {s!r}") from exc


def nest(p: Poly, order: int = 0) -> Poly:
    """The outer differential polynomial consisting of the single variable
    whose base name encodes p, at the given derivative order."""
    return dvar(encode_nested(p), order)


def _towers(p: Poly, d: Callable, image: Callable) -> dict:
    """For each base name x of p, the derivative tower of image(x) up to
    the highest order of x in p."""
    # p.variables() is sorted, so each base keeps its highest order.
    top = {v.base: v.order for v in p.variables()}
    return {base: natural_map(d, image(base), order) for base, order in top.items()}


def beta(p: Poly) -> Poly:
    """Flatten one level of nesting: replace each outer variable (E, n) by
    the n-th shift derivative of the inner polynomial encoded by E, then
    expand.  Raises :class:`MalformedNesting` when a base name does not
    decode."""
    towers = _towers(p, d_shift, decode_nested)
    return substitute(p, {v: towers[v.base][v.order] for v in p.variables()})


def extend(images: Mapping, carrier, p: Poly):
    """Evaluate a differential polynomial in a differential algebra.

    ``images`` assigns a carrier element to each base name; the variable
    (x, n) evaluates to the n-th derivative of images[x] under the
    carrier's derivation.  This is the unique derivation-compatible ring
    morphism extending the assignment.  Raises :class:`UnboundVariable`
    for base names without an image.
    """

    def image(base: str):
        if base not in images:
            raise UnboundVariable(f"no image for base name {base!r}")
        return images[base]

    towers = _towers(p, carrier.d, image)
    return evaluate(p, lambda v: towers[v.base][v.order], carrier.one, carrier.mul,
                    carrier.zero, carrier.add, carrier.scale)
