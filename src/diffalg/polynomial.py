"""Sparse multivariate polynomials over exact rationals, with the
total-derivative tensor.

A polynomial is a finite map from monomials to nonzero rational
coefficients.  A monomial is a sorted tuple of ``(variable, exponent)``
pairs with positive exponents; the empty tuple is the monomial 1.
Variables can be any hashable, mutually comparable values: plain name
strings for ordinary polynomials, ``(name, order)`` pairs for differential
polynomials.  Every operation re-canonicalizes immediately, so two
polynomials are equal as ring elements iff they are equal as values.

Differentiating a polynomial does not produce another polynomial here but a
:class:`Tensor`: a finite sum of (polynomial ⊗ variable) pairs,

    derive(p) = sum_i  dp/dx_i ⊗ x_i.

Multiplying each pair back out (:func:`coderive`) recovers a polynomial;
the composite :func:`euler` scales every monomial by its total degree.
Together these give the derived maps :func:`flat` and :func:`sharp`, which
turn variable assignments and linear endomorphisms into derivations.

:class:`Poly` and :class:`Tensor` are :class:`~diffalg.lincomb.LinComb`
subclasses: the coefficient representation (integer numerators over one
denominator, ``float`` and ``bool`` rejected, cancel-on-zero) is decided
there, once, and the loops below run on its integers.  A sum of products
is built by :func:`sum_products` in one pass, with one reduction, and the
components of a series product over polynomials by :func:`sum_convolution`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import repeat
from typing import Callable, Mapping

from .errors import MixedVariables, NonLinearImage, UnboundVariable
from .lincomb import LinComb, ratio
from .scalars import power

# A monomial: sorted tuple of (variable, positive exponent) pairs.  The kernel
# below builds them: mono_from_exponents (from an exponent map, by a sort),
# mono_mul (the one product, by a merge of its two sorted operands) and
# mono_lower (one factor removed); mono_str prints one.
# The one other builder is free_diff.d_shift, which inserts a bumped
# derivative variable at the one place the order allows.  Variables that
# cannot be ordered against each other (plain names and DVars) raise
# MixedVariables.
Mono = tuple
EMPTY_MONO: Mono = ()


def _sorted_mono(items) -> Mono:
    try:
        return tuple(sorted(items))
    except TypeError as exc:
        raise _mixed("one monomial", (v for v, _ in items)) from exc


def _mixed(where: str, variables) -> MixedVariables:
    """The error for a sort or merge that could not order variables of
    different kinds."""
    kinds = ", ".join(sorted({type(v).__name__ for v in variables}))
    return MixedVariables(f"variables of different kinds in {where}: {kinds}")


def mono_from_exponents(exponents: Mapping) -> Mono:
    """Canonical monomial from a variable -> exponent mapping."""
    items = []
    for v, e in exponents.items():
        if type(e) is not int:
            raise TypeError(f"exponent of {v!r} must be an int, got {type(e).__name__}")
        if e < 0:
            raise ValueError(f"negative exponent {e} for {v!r}")
        if e:
            items.append((v, e))
    return _sorted_mono(items)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """The product a·b, by one merge of the two sorted tuples: a shared
    variable adds its exponents, and the side left over is appended."""
    if not a or not b:
        return a or b
    out = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    try:
        while i < na and j < nb:
            x = a[i]
            y = b[j]
            v, w = x[0], y[0]
            if v == w:
                append((v, x[1] + y[1]))
                i, j = i + 1, j + 1
            elif v < w:
                append(x)
                i += 1
            else:
                append(y)
                j += 1
    except TypeError as exc:
        raise _mixed("one monomial", (v for v, _ in a + b)) from exc
    return tuple(out) + a[i:] + b[j:]


def mono_lower(m: Mono, i: int) -> Mono:
    """m with one factor of its i-th variable removed, by slicing: removing
    a factor keeps the variables in order, so no sort is needed."""
    v, e = m[i]
    return m[:i] + (((v, e - 1),) if e > 1 else ()) + m[i + 1:]


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_str(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in m)


def term_sort_key(m: Mono):
    """Canonical ordering key: (total degree, the (variable, exponent)
    sequence); terms print in descending key order."""
    return (mono_degree(m), m)


class Poly(LinComb):
    """Immutable sparse polynomial in canonical form."""

    __slots__ = ()
    _scalar_key = EMPTY_MONO  # scalars are constant polynomials (_operand)

    # -- construction -----------------------------------------------------

    @classmethod
    def one(cls) -> "Poly":
        return cls._ints({EMPTY_MONO: 1}, 1)

    @classmethod
    def const(cls, value) -> "Poly":
        n, d = ratio(value)
        return cls._ints({EMPTY_MONO: n} if n else {}, d)

    @classmethod
    def variable(cls, v) -> "Poly":
        return cls._ints({((v, 1),): 1}, 1)

    @classmethod
    def monomial(cls, exponents: Mapping, coeff=1) -> "Poly":
        n, d = ratio(coeff)
        return cls._from_ints({mono_from_exponents(exponents): n}, d)

    def _operand(self, other):
        """Scalars act as constant polynomials."""
        if isinstance(other, Poly):
            return other
        try:
            return Poly.const(other)
        except TypeError:
            return None

    # -- inspection --------------------------------------------------------

    def variables(self) -> tuple:
        """All variables occurring in the polynomial, sorted."""
        seen = {v for m in self._num for v, _ in m}
        try:
            return tuple(sorted(seen))
        except TypeError as exc:
            raise _mixed("one polynomial", seen) from exc

    def total_degree(self) -> int:
        """Largest monomial degree; the zero polynomial reports 0."""
        return max((mono_degree(m) for m in self._num), default=0)

    def n_terms(self) -> int:
        return len(self._num)

    # -- ring structure ----------------------------------------------------
    #
    # __add__ and __mul__ live in this class body, not only in LinComb, so
    # that profiles and perfbench's tracer see polynomial arithmetic by name.

    def __add__(self, other):
        return LinComb.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return LinComb.__mul__(self, other)
        return Poly._from_ints(_accumulate({}, 1, self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, Poly.one())

    def __str__(self) -> str:
        if not self._num:
            return "0"
        self.variables()  # raises MixedVariables on variables of different kinds
        parts = []
        for m in sorted(self._num, key=term_sort_key, reverse=True):
            c = Fraction(self._num[m], self._den)
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono_str(m))
            else:
                parts.append(f"{c}*{mono_str(m)}")
        return " + ".join(parts)


def _as_poly(value) -> Poly:
    """value as a polynomial: scalars are constants."""
    return value if isinstance(value, Poly) else Poly.const(value)


def _accumulate(out: dict, w: int, a: dict, b: dict) -> dict:
    """Add w times every term product of the numerator dicts a and b into
    out, the one product loop of Poly.__mul__ and sum_products."""
    for m1, c1 in a.items():
        c1 *= w
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def sum_products(triples) -> Poly:
    """sum of w·a·b over (int w, Poly a, Poly b) triples, in one pass: every
    product is put over the lcm of the a._den·b._den, all term products go
    into one dict, and the sum is reduced once.  Raises MixedVariables as
    a * b does."""
    triples = list(triples)
    den = math.lcm(*(a._den * b._den for _, a, b in triples))
    out: dict[Mono, int] = {}
    for w, a, b in triples:
        _accumulate(out, w * (den // (a._den * b._den)), a._num, b._num)
    return Poly._from_ints(out, den)


def sum_convolution(pairs, order: int, rows) -> list:
    """Components 0, ..., order of the sum of w·row[k]·a[k]·b[n-k] over the
    (int w, a, b) pairs of Poly tuples and k <= n, row n of rows weighing
    component n (None: all 1): each the sum_products of its triples, with
    the same numerators, denominator and key order.  Each term is encoded
    once as (packed int, monomial, numerator).  A variable gets its field
    when first seen, wide enough for an a-side plus a b-side exponent, so a
    product's key is the sum of its factors' keys and no field carries.
    mono_mul runs only on a key not seen before, so a key that mixes
    variable kinds raises MixedVariables there, as a * b does.  Each
    component is reduced once, on its lists of monomials and numerators
    (LinComb._from_lists), so each output monomial is hashed once."""
    width = sum(max((e for pair in pairs for c in pair[side] for m in c._num for _, e in m),
                    default=0) for side in (1, 2)).bit_length()
    fields: dict = {}  # variable -> the shift of its field

    def encode(p: Poly) -> tuple:
        triples = []
        for m, c in p._num.items():
            key = 0
            for v, e in m:
                shift = fields.get(v)
                if shift is None:
                    shift = fields[v] = width * len(fields)
                key += e << shift
            triples.append((key, m, c))
        return triples, p._den

    coded = [(w, list(map(encode, a)), list(map(encode, b))) for w, a, b in pairs]
    out = []
    for n, row in zip(range(order + 1), rows):
        terms = [(w * r, x, y, dx * dy) for w, a, b in coded
                 for r, (x, dx), (y, dy) in zip(row or repeat(1), a, b[n::-1])]
        den = math.lcm(*(d for *_, d in terms))
        acc: dict[int, int] = {}
        monos = []
        for w, x, y, d in terms:
            w *= den // d
            for k1, m1, n1 in x:
                n1 *= w
                for k2, m2, n2 in y:
                    k = k1 + k2
                    s = acc.get(k)
                    if s is None:
                        acc[k] = n1 * n2
                        monos.append(mono_mul(m1, m2))
                    else:
                        acc[k] = s + n1 * n2
        out.append(Poly._from_lists(monos, list(acc.values()), den))
    return out


class LinearMap:
    """A map sending variables to polynomials; absent variables map to
    themselves.  Where an operation needs linearity (functorial renaming,
    :func:`sharp`), the images must be degree-1 with no constant term."""

    __slots__ = ("_images",)

    def __init__(self, images: Mapping | None = None):
        self._images = {}
        if images:
            for v, p in images.items():
                self._images[v] = _as_poly(p)

    def image(self, v) -> Poly:
        return self._images[v] if v in self._images else Poly.variable(v)

    def linear_image(self, v) -> tuple:
        """The image of v as ((variable, coefficient), ...) pairs.

        Raises :class:`NonLinearImage` if the image has a constant term or a
        monomial of degree other than 1.
        """
        return tuple((m[0][0], c) for m, c in self._linear(v).terms())

    def _linear(self, v) -> Poly:
        """The image of v, checked as :meth:`linear_image` checks it."""
        p = self.image(v)
        if any(len(m) != 1 or m[0][1] != 1 for m in p._num):
            raise NonLinearImage(f"image of {v!r} is not linear: {p}")
        return p


def _as_linear_map(f) -> LinearMap:
    return f if isinstance(f, LinearMap) else LinearMap(f)


def _linear_images(f, variables) -> tuple[dict, int]:
    """({v: [(w, int a), ...]}, L): each image under f as a·w terms over one
    denominator L; NonLinearImage names the first variable not linear."""
    f = _as_linear_map(f)
    images = {v: f._linear(v) for v in variables}
    lcm = math.lcm(*(p._den for p in images.values()))
    return {v: [(m[0][0], a * (lcm // p._den)) for m, a in p._num.items()]
            for v, p in images.items()}, lcm


class Tensor(LinComb):
    """A finite sum of (polynomial ⊗ variable) pairs with rational
    coefficients, stored with the polynomial slot distributed to monomials:
    keys are (monomial, variable)."""

    __slots__ = ()

    @classmethod
    def of(cls, p: Poly, v) -> "Tensor":
        """The elementary tensor p ⊗ v, distributed to canonical form."""
        return cls._ints({(m, v): c for m, c in p._num.items()}, p._den)

    pairs = LinComb.terms

    def scale_poly(self, q: Poly) -> "Tensor":
        """Multiply the polynomial slot of every pair by q: the module
        action the Leibniz and chain rules land in, one map_poly."""
        return self.map_poly(lambda slot: slot * q)

    def map_poly(self, fn: Callable[[Poly], Poly]) -> "Tensor":
        """Apply a linear function to the polynomial slot of every pair: fn
        is called once per variable, on the sum of that variable's slots.
        With map_var, the tensor's functorial action; derive is natural under
        both, and scale_poly is one map_poly."""
        slots: dict = {}
        for (m, v), c in self._num.items():
            slots.setdefault(v, {})[m] = c
        images = [(v, fn(Poly._from_ints(num, self._den))) for v, num in slots.items()]
        den = math.lcm(*(q._den for _, q in images))  # the images' keys are distinct
        return Tensor._from_ints({(m, v): n * (den // q._den) for v, q in images
                                  for m, n in q._num.items()}, den)

    def map_var(self, f) -> "Tensor":
        """Apply a linear variable map to the variable slot of every pair.
        With map_poly, the tensor's functorial action; sharp(g, p) equals
        coderive(derive(p).map_var(g)), as the sharp tests check."""
        scaled, lcm = _linear_images(f, dict.fromkeys(v for _, v in self._num))
        out: dict = {}
        for (m, v), c in self._num.items():
            for w, a in scaled[v]:
                key = (m, w)
                out[key] = out.get(key, 0) + c * a
        return Tensor._from_ints(out, self._den * lcm)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for (m, v) in sorted(self._num, key=lambda k: (k[1], term_sort_key(k[0])), reverse=False):
            p = Poly._from_ints({m: self._num[(m, v)]}, self._den)
            parts.append(f"{p} (x) {v}")
        return " + ".join(parts)


# -- the categorical operations -------------------------------------------


def unit_poly() -> Poly:
    """The constant polynomial 1."""
    return Poly.one()


def eta(v) -> Poly:
    """The polynomial consisting of the single variable v."""
    return Poly.variable(v)


def evaluate(p: Poly, value_of: Callable, one, mul: Callable, zero,
             add: Callable = operator.add, scale: Callable = operator.mul):
    """Evaluate p in a commutative algebra: each variable v becomes
    value_of(v), and the monomials are multiplied out with mul, scaled by
    their coefficients with scale(c, x) and summed with add from zero; the
    empty monomial is one.

    value_of decides what an unbound variable means (an error, or the
    variable itself).  Each power value_of(v)**e is computed once per call.
    """
    powers: dict = {}
    total = zero
    for m, c in p.terms():
        acc = one
        for i, (v, e) in enumerate(m):
            power = powers.get((v, e))
            if power is None:
                power = value = value_of(v)
                for _ in range(e - 1):
                    power = mul(power, value)
                powers[(v, e)] = power
            acc = power if i == 0 else mul(acc, power)
        total = add(total, scale(c, acc))
    return total


def substitute(p: Poly, env: Mapping) -> Poly:
    """Simultaneous substitution, fully expanded to canonical form: p
    evaluated at the images, multiplied out by :func:`evaluate`.

    Variables missing from env stand for themselves.  Substitution is a
    ring morphism: it preserves sums, products, and the unit.  A renaming
    of variables is :func:`rename_vars`, which forms no product.
    """
    images = {v: Poly.variable(v) if env.get(v) is None else _as_poly(env[v])
              for v in {v for m in p._num for v, _ in m}}
    return evaluate(p, images.__getitem__, Poly.one(), operator.mul, Poly.zero())


def rename_vars(p: Poly, fn: Callable) -> Poly:
    """Rebuild p with every variable v replaced by the variable fn(v); fn
    is called once per distinct variable.  Each monomial is rebuilt from
    its renamed exponents, which add where two variables get one name, and
    no product is formed."""
    names = {v: fn(v) for v in p.variables()}
    out: dict[Mono, int] = {}
    for m, c in p._num.items():
        exps: dict = {}
        for v, e in m:
            exps[names[v]] = exps.get(names[v], 0) + e
        key = mono_from_exponents(exps)
        out[key] = out.get(key, 0) + c
    return Poly._from_ints(out, p._den)


def map_linear(p: Poly, f) -> Poly:
    """Apply a linear variable map multiplicatively to every monomial.

    This is the functorial action on polynomials: it preserves products and
    the unit exactly.  Raises :class:`NonLinearImage` if any used variable
    has a non-linear image.
    """
    f = _as_linear_map(f)
    return substitute(p, {v: f._linear(v) for v in p.variables()})


def partial(p: Poly, v) -> Poly:
    """Partial derivative of p with respect to the variable v.  Lowering
    the exponent of v is one-to-one on monomials, so no terms merge."""
    out: dict[Mono, int] = {}
    for m, c in p._num.items():
        for i, (w, e) in enumerate(m):
            if w == v:
                out[mono_lower(m, i)] = c * e
                break
    return Poly._from_ints(out, p._den)


def derive(p: Poly) -> Tensor:
    """The total-derivative tensor: sum_i dp/dx_i ⊗ x_i.  A key
    (dp/dx_i monomial, x_i) determines its source monomial, so no terms
    merge."""
    return Tensor._from_ints({(mono_lower(m, i), v): c * e
                              for m, c in p._num.items() for i, (v, e) in enumerate(m)}, p._den)


def coderive(t: Tensor) -> Poly:
    """Multiply each tensor pair back out: sum c · p · v."""
    out: dict[Mono, int] = {}
    for (m, v), c in t._num.items():
        m2 = mono_mul(m, ((v, 1),))
        out[m2] = out.get(m2, 0) + c
    return Poly._from_ints(out, t._den)


def euler(p: Poly) -> Poly:
    """Derive then multiply back in: scales each monomial by its total
    degree."""
    return coderive(derive(p))


def flat(images: Mapping, p: Poly) -> Poly:
    """The derivation induced by a variable assignment:

        flat(f, p) = sum_i  dp/dx_i · f(x_i).

    Every variable of p must have an image; raises
    :class:`UnboundVariable` otherwise, before any partial is taken.  The
    sum is one :func:`sum_products`.
    """
    names = p.variables()
    for v in names:
        if v not in images:
            raise UnboundVariable(f"no image for variable {v!r}")
    return sum_products((1, partial(p, v), _as_poly(images[v])) for v in names)


def sharp(g, p: Poly) -> Poly:
    """The derivation induced by a linear endomorphism g of the variables:

        sharp(g, p) = sum_i  dp/dx_i · g(x_i),

    coderive(derive(p).map_var(g)) in one pass, every image checked first,
    reduced once.  The identity map gives :func:`euler`.
    """
    scaled, lcm = _linear_images(g, dict.fromkeys(v for m in p._num for v, _ in m))
    out: dict[Mono, int] = {}
    for m, c in p._num.items():
        for i, (v, e) in enumerate(m):
            lower, ce = mono_lower(m, i), c * e
            for w, a in scaled[v]:
                key = mono_mul(lower, ((w, 1),))
                out[key] = out.get(key, 0) + ce * a
    return Poly._from_ints(out, p._den * lcm)


def derive_twice(p: Poly) -> dict:
    """The twice-derived object as a map (monomial, v_j, v_i) -> coefficient,
    representing  sum_{i,j} d²p/dx_i dx_j ⊗ x_j ⊗ x_i.  As in
    :func:`derive`, each key determines its source term, so no terms merge."""
    d = derive(p)
    return {(m2, vj, vi): c2
            for (m1, vi), n1 in d._num.items()
            for (m2, vj), c2 in derive(Poly._from_ints({m1: n1}, d._den)).pairs()}
