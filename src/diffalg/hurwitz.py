"""Truncated Hurwitz series and power series over a carrier algebra.

A series is a window (a_0, ..., a_N) of the first N+1 coefficients of a
sequence valued in some commutative algebra (exact rationals, polynomials,
differential polynomials).  The flavor decides the multiplication:

* Hurwitz:  (f·g)(n) = sum_k  C(n,k) f(k) g(n-k),  derivation = shift,
* power:    (f·g)(n) = sum_k  f(k) g(n-k),         derivation = scaled
  shift (n+1)·f(n+1),

which are the cofree differential algebra and the classical power series
ring on the same carrier.  Over the rationals the two are isomorphic via
:func:`psi` (multiply coefficient n by n!), and that isomorphism
intertwines the two derivations.

Truncation bookkeeping: multiplication preserves the order, each
application of the derivation consumes one coefficient of precision.
Strict operations (:func:`smul`) require equal orders; tests and the law
harness compare series only on the intersection of their windows
(:meth:`Series.window_eq`).

Storage: a rational series keeps the layout of
:class:`~diffalg.lincomb.LinComb`, a tuple of int numerators over one
positive denominator with no common factor, decided once, in the public
constructor.  A coefficient or a scalar factor is an ``int``, a
``Fraction`` or an element of another ring (a polynomial); a ``float``,
``complex``, ``bool`` or ``str`` raises ``TypeError``.  Sums, scalar
products, :func:`smul`, :func:`sderive`, truncation, :func:`psi` and
:func:`psi_inv` run on the integers and reduce by one gcd per result,
which also decides the store: a ``Poly`` or ``Fraction`` numerator makes
``math.gcd`` raise ``TypeError``, and the result goes through the public
constructor.  :func:`psi` and :func:`psi_inv` read a factorial row kept
as Pascal's rows are.  ``coeffs`` of a result shows ``Fraction``s, built
on first read, also where the operands held ints; ``==``, hash and
``str`` are those of the coefficient tuple; :func:`omega_eval` and
:func:`delta_eval` build the one ``Fraction`` they return.  Polynomial
coefficients take the same loops as their own numerators over 1, except
that :func:`_convolution`, the one product loop of :func:`smul` and of
:func:`sum_smul` (a weighted sum of products), builds every component of
all-``Poly`` factors in one packed pass,
:func:`~diffalg.polynomial.sum_convolution`, not one sum of products per
component.

Evaluating a polynomial p at series arguments can be done two ways: with
the ring operations above, or by the chain rule D(q(x)) = sum_v
(dq/dv)(x)·D(x_v), one series per iterated partial of p, as
:func:`omega_eval` (Hurwitz) and :func:`delta_eval` (power) do.  The two
agree; that equality is one of the package's central executable facts.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import FlavorMismatch, OrderExhausted, OrderMismatch, UnboundVariable
from .lincomb import over_lcm, ratio
from .scalars import power

if TYPE_CHECKING:  # the functions that use polynomials import them, so rational series do not
    from .polynomial import Poly


class Flavor(enum.Enum):
    HURWITZ = "hurwitz"
    POWER = "power"


class Series:
    """A truncated series: coefficients (a_0, ..., a_N) plus a flavor.

    The store (see the module docstring) is ``_num`` over ``_den``, as
    :func:`~diffalg.lincomb.over_lcm` gives it in the constructor;
    ``_coeffs`` caches :attr:`coeffs`, and is ``_num`` itself for
    coefficients that are not all rational.  Immutable."""

    __slots__ = ("_num", "_den", "_coeffs", "flavor")

    def __init__(self, coeffs, flavor: Flavor):
        if not isinstance(flavor, Flavor):  # as _exact refuses a coefficient
            raise TypeError(f"expected a Flavor, got {type(flavor).__name__}")
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        ints = over_lcm(coeffs)
        if ints is None:  # not all int or Fraction: each must be a ring element
            coeffs = tuple(map(_exact, coeffs))
        num, den = (coeffs, 1) if ints is None else (tuple(ints[0]), ints[1])
        _set(self, "_num", num)
        _set(self, "_den", den)
        _set(self, "_coeffs", coeffs)
        _set(self, "flavor", flavor)

    @classmethod
    def _reduced(cls, nums, den: int, flavor: Flavor) -> "Series":
        """The series nums/den: int numerators are divided through by their
        gcd with den; other values (math.gcd refuses them) are divided by
        den and go through the public constructor."""
        try:
            g = math.gcd(den, *nums)
        except TypeError:  # a Poly or a Fraction among the numerators
            return cls(nums if den == 1 else [n * Fraction(1, den) for n in nums], flavor)
        if g != 1:
            nums, den = [n // g for n in nums], den // g
        s = object.__new__(cls)
        _set(s, "_num", tuple(nums))
        _set(s, "_den", den)
        _set(s, "_coeffs", None)
        _set(s, "flavor", flavor)
        return s

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a {type(self).__name__} is immutable: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Series, (self.coeffs, self.flavor)

    @property
    def coeffs(self) -> tuple:
        """The coefficients: as given to the constructor, and as Fractions
        (over the rationals) for the result of an operation."""
        if self._coeffs is None:
            den = self._den
            _set(self, "_coeffs", tuple(Fraction(n, den) for n in self._num))
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._num) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def truncate(self, order: int) -> "Series":
        if order < 0:
            raise ValueError("order must be non-negative")
        if order >= self.order:
            return self
        return self._reduced(self._num[: order + 1], self._den, self.flavor)

    def window_eq(self, other: "Series") -> bool:
        """Componentwise equality on the intersection of the two windows.
        Mismatched flavors never compare equal."""
        if self.flavor is not other.flavor:
            return False
        da, db = self._den, other._den
        return all(a * db == b * da for a, b in zip(self._num, other._num))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return len(self._num) == len(other._num) and self.window_eq(other)

    def __hash__(self):
        return hash((self.coeffs, self.flavor))

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.flavor is not other.flavor:
            raise FlavorMismatch(f"{self.flavor.value} + {other.flavor.value}")
        da, db = self._den, other._den
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return self._reduced([a * fa + b * fb for a, b in zip(self._num, other._num)], den,
                             self.flavor)

    def __rmul__(self, scalar):
        if isinstance(scalar, Series):
            return NotImplemented
        try:
            a, b = ratio(scalar)
        except TypeError:  # a coefficient of another ring, e.g. a polynomial
            a, b = _exact(scalar), 1
        return self._reduced([a * n for n in self._num], self._den * b, self.flavor)

    def __mul__(self, other):
        if isinstance(other, Series):
            return smul(self, other)
        return self.__rmul__(other)

    def __pow__(self, n: int):
        return power(self, n, sunit(self.order, self.flavor))

    def __str__(self) -> str:
        return "[" + ",".join(str(a) for a in self.coeffs) + "]"

    def __repr__(self) -> str:
        return f"Series({self}, {self.flavor.value})"


_set = object.__setattr__  # Series.__setattr__ refuses every assignment


def _exact(value):
    """value, unless it is a number other than an ``int`` or a ``Fraction``
    (a ``float``, a ``Decimal``, a fixed-width integer that wraps around, a
    ``bool``) or a ``str``: those raise ``TypeError``, as
    :func:`~diffalg.lincomb.coerce` does for a linear combination."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    if isinstance(value, (numbers.Number, str)):
        raise TypeError(f"expected an exact rational or a ring element, "
                        f"got {type(value).__name__}")
    return value


def sunit(order: int, flavor: Flavor) -> Series:
    """The multiplicative unit (1, 0, ..., 0) at the given order."""
    if not isinstance(flavor, Flavor):
        raise TypeError(f"expected a Flavor, got {type(flavor).__name__}")
    if order < 0:
        raise ValueError("order must be non-negative")
    return Series._reduced((1,) + (0,) * order, 1, flavor)


def smul(f: Series, g: Series) -> Series:
    """Flavor-dependent convolution; strict about flavor and order.

    One :func:`_convolution` of the stored numerators, over the product of
    the two denominators, reduced once."""
    if f.flavor is not g.flavor:
        raise FlavorMismatch(f"{f.flavor.value} * {g.flavor.value}")
    if f.order != g.order:
        raise OrderMismatch(f"order {f.order} * order {g.order}")
    pairs = [(1, f._num, g._num)]
    return Series._reduced(_convolution(pairs, f.order, f.flavor), f._den * g._den, f.flavor)


def sum_smul(triples) -> Series:
    """The sum of w·f·g over a nonempty list of (int w, Series f, Series g)
    triples of one flavor, with the value and window (the least order of a
    factor) of the smul_trunc/scale/+ fold: one :func:`_convolution` of
    the stored numerators, each pair weighted onto the lcm of the
    f._den·g._den, and one reduction.  The pairs share one read of
    Pascal's rows (:func:`_rows`: kept to :data:`_PASCAL_CAP`)."""
    flavor = triples[0][1].flavor
    if any(s.flavor is not flavor for _, f, g in triples for s in (f, g)):
        raise FlavorMismatch(f"mixed flavors in a {flavor.value} sum")
    order = min(min(f.order, g.order) for _, f, g in triples)
    den = math.lcm(*(f._den * g._den for _, f, g in triples))
    pairs = [(w * (den // (f._den * g._den)), f._num, g._num) for w, f, g in triples]
    return Series._reduced(_convolution(pairs, order, flavor), den, flavor)


def _convolution(pairs, order: int, flavor: Flavor) -> list:
    """Components 0, ..., order of the unreduced sum of w·a·b over the
    (int w, a, b) pairs, Hurwitz summands weighted by C(n, k) from
    Pascal's rows, kept for the process to order :data:`_PASCAL_CAP` and
    built in the call past it (a table to the CLI's MAX_ORDER would hold
    about 500,000 ints).  All-``Poly`` coefficients go to
    :func:`~diffalg.polynomial.sum_convolution`; others (numbers, or
    polynomials mixed with scalars) are summed term by term."""
    rows = _rows(order + 1) if flavor is Flavor.HURWITZ else repeat(None)
    if not isinstance(pairs[0][1][0], (int, Fraction)):  # a rational series stores ints
        from .polynomial import Poly, sum_convolution
        if all(isinstance(c, Poly) for _, a, b in pairs for s in (a, b) for c in s):
            return sum_convolution(pairs, order, rows)
    if flavor is Flavor.HURWITZ:  # add the pairs' k-th summands, weigh once
        (a0, b0), *rest = [(a if w == 1 else [w * c for c in a], b) for w, a, b in pairs]
        out = []
        for n, row in zip(range(order + 1), rows):
            column = map(operator.mul, a0, b0[n::-1])
            for a, b in rest:
                column = map(operator.add, column, map(operator.mul, a, b[n::-1]))
            out.append(sum(map(operator.mul, row, column)))
        return out
    out = None
    for w, a, b in pairs:  # power summands have no weights to share
        conv = [sum(map(operator.mul, a, b[n::-1])) for n in range(order + 1)]
        conv = conv if w == 1 else [w * c for c in conv]
        out = conv if out is None else list(map(operator.add, out, conv))
    return out


def _pascal_rows(count: int, row=(1,)):
    """count of Pascal's rows from row on (row 0 by default), as tuples."""
    for _ in range(count):
        yield row
        row = (1, *map(operator.add, row, row[1:]), 1)


_PASCAL_CAP = 64
_PASCAL = tuple(_pascal_rows(_PASCAL_CAP + 1))  # 2,145 ints, built at import


def _rows(count: int):
    """Pascal's rows 0, ..., count-1: kept ones, then built past the cap."""
    if count <= len(_PASCAL):
        return _PASCAL[:count]
    return chain(_PASCAL[:-1], _pascal_rows(count - _PASCAL_CAP, _PASCAL[-1]))


# 0!, ..., 64!, built at import
_FACTORIALS = tuple(accumulate(range(1, _PASCAL_CAP + 1), operator.mul, initial=1))


def _factorials(count: int) -> tuple:
    """0!, ..., (count-1)!: kept ones, then built past the cap."""
    if count <= len(_FACTORIALS):
        return _FACTORIALS[:count]
    return _FACTORIALS[:-1] + tuple(
        accumulate(range(_PASCAL_CAP + 1, count), operator.mul, initial=_FACTORIALS[-1]))


def smul_trunc(f: Series, g: Series) -> Series:
    """Multiply after truncating both factors to the shared window."""
    n = min(f.order, g.order)
    return smul(f.truncate(n), g.truncate(n))


def sderive(f: Series) -> Series:
    """The derivation: shift for Hurwitz, (n+1)-scaled shift for power.
    Consumes one order of precision; raises :class:`OrderExhausted` when no
    precision is left."""
    if f.order == 0:
        raise OrderExhausted("cannot derive a series of order 0")
    nums = f._num[1:]
    if f.flavor is Flavor.POWER:
        nums = list(map(operator.mul, range(1, len(f._num)), nums))
    return Series._reduced(nums, f._den, f.flavor)


def ring_eval(p: Poly, env: Mapping) -> Series:
    """Evaluate p at series arguments using the series ring operations.

    All series in env must share flavor and order.  Variables of p missing
    from env raise :class:`UnboundVariable`.
    """
    from .polynomial import evaluate
    if not env:
        raise ValueError("ring_eval needs at least one series to fix flavor and order")
    first = next(iter(env.values()))
    flavor, order = first.flavor, first.order
    for s in env.values():
        if s.flavor is not flavor:
            raise FlavorMismatch("environment mixes series flavors")
        if s.order != order:
            raise OrderMismatch("environment mixes series orders")

    def var_value(v):
        if v not in env:
            raise UnboundVariable(f"no series for variable {v!r}")
        return env[v]

    one = sunit(order, flavor)
    return evaluate(p, var_value, one, smul, 0 * one)


def _check_env(p: Poly, env: Mapping, n: int, flavor: Flavor) -> None:
    if n < 0:
        raise ValueError("component index must be non-negative")
    for v in p.variables():
        if v not in env:
            raise UnboundVariable(f"no series for variable {v!r}")
        s = env[v]
        if s.flavor is not flavor:
            raise FlavorMismatch(f"expected {flavor.value} series for {v!r}")
        if s.order < n:
            raise OrderExhausted(f"series for {v!r} has order {s.order} < {n}")


def _recursion(p: Poly, env: Mapping, n: int, flavor: Flavor) -> Callable:
    """Component k <= n of the evaluation of p, by the chain rule
    D(q(x)) = sum_v (dq/dv)(x)·D(x_v): each iterated partial q of p is one
    series R(q) to order n - j, kept under its multi-index (how often each
    of p's variables was differentiated, j times in all), so a partial
    reached again is found before :func:`~diffalg.polynomial.partial`
    computes it.  Its component 0 is q at the 0-components, an integer
    over s = L·d^deg(p) (L the stored denominator of p, d the lcm of the
    series' denominators, or 1 over polynomials).  The rest integrates the
    :func:`sum_smul` of the R(dq/dv) with the sderive(x_v), one order
    lower: Hurwitz prepends component 0, power also divides component m by
    m.  A component is read from R(p) alone, not from all of its
    ``coeffs``."""
    from .polynomial import mono_degree, partial
    _check_env(p, env, n, flavor)
    names = p.variables()
    series = [env[v].truncate(n) for v in names]
    d = 1 if any(f._coeffs is f._num for f in series) else math.lcm(*(f._den for f in series))
    x0 = {v: f.coeffs[0] if d % f._den else f._num[0] * (d // f._den)
          for v, f in zip(names, series)}
    dx = {v: sderive(f) for v, f in zip(names, series)} if n else {}
    deg = p.total_degree()
    s = p._den * d ** deg
    memo: dict = {}
    where = {v: i for i, v in enumerate(names)}

    def build(q: Poly, key: tuple, k: int, build) -> Series:
        """R(q) to order k, for q the partial of p that key counts.  It
        recurses through its argument: a closure cell naming itself would be
        a cycle, holding the memo until the cyclic GC runs."""
        # q(x/d)·s = sum over m of n_m·(L/q's den)·d^(deg p - deg m)·x^m
        head = p._den // q._den * sum(
            n * d ** (deg - mono_degree(m)) * math.prod(x0[v] ** e for v, e in m)
            for m, n in q._num.items())
        variables = q.variables() if k else ()
        if not variables:
            r = memo[key] = Series._reduced([head] + [0] * k, s, flavor)
            return r
        parts = []
        for v in variables:
            i = where[v]
            sub = (*key[:i], key[i] + 1, *key[i + 1:])
            r = memo.get(sub)
            parts.append((1, build(partial(q, v), sub, k - 1, build) if r is None else r, dx[v]))
        tail = sum_smul(parts)
        # component m of R(q) is tail[m-1] / steps[m-1], all over den
        steps = range(1, k + 1) if flavor is Flavor.POWER else (1,) * k
        den = math.lcm(s, tail._den) * math.lcm(*steps)
        lift = den // tail._den
        r = memo[key] = Series._reduced(
            [head * (den // s), *(c * (lift // m) for c, m in zip(tail._num, steps))], den, flavor)
        return r

    r = build(p, (0,) * len(names), n, build)
    return lambda k: Fraction(r._num[k], r._den) if r._coeffs is None else r._coeffs[k]


def _components(p: Poly, env: Mapping, n: int, flavor: Flavor) -> list:
    """Components 0, ..., n of the recursion, read from one memo: entry k
    equals omega_eval(p, env, k) (Hurwitz) or delta_eval(p, env, k) (power).
    The ``eval`` verb of the CLI and the eval laws of
    :mod:`~diffalg.suites` read their components here."""
    component = _recursion(p, env, n, flavor)
    return [component(k) for k in range(n + 1)]


def omega_eval(p: Poly, env: Mapping, n: int):
    """Coefficient n of the Hurwitz-ring evaluation of p, by the inductive
    recursion:

        w_0(q)     = q evaluated at the 0-components,
        w_{m+1}(q) = sum_{k<=m} C(m,k) sum_j w_k(dq/dx_j) · env(x_j)[m-k+1].

    One series per iterated partial within the call; equals
    ring_eval(p, env)[n].
    """
    return _recursion(p, env, n, Flavor.HURWITZ)(n)


def delta_eval(p: Poly, env: Mapping, n: int):
    """Coefficient n of the power-series (Cauchy) evaluation of p.

    The recursion carries the exact rational weight (m-k+1)/(m+1) that the
    scaled-shift derivation forces:

        d_0(q)     = q evaluated at the 0-components,
        d_{m+1}(q) = sum_{k<=m} (m-k+1)/(m+1) sum_j d_k(dq/dx_j) · env(x_j)[m-k+1].

    One series per iterated partial within the call; equals
    ring_eval(p, env)[n] for power-flavored environments.
    """
    return _recursion(p, env, n, Flavor.POWER)(n)


def diamond(d: Callable, a, order: int) -> Series:
    """The Hurwitz series of iterated derivatives (a, D(a), ..., D^order(a)).

    It converts products to Hurwitz products (the higher-order Leibniz rule
    in series form) and intertwines D with the shift.
    """
    from .free_diff import natural_map
    return Series(tuple(natural_map(d, a, order)), Flavor.HURWITZ)


class SeriesOfSeries:
    """A rectangular grid of carrier elements: the truncated codomain of
    comultiplication.  Immutable; compared and hashed by its grid."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        rows = tuple(tuple(r) for r in grid)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("grid must be non-empty and rectangular")
        _set(self, "grid", rows)

    __setattr__ = __delattr__ = Series.__setattr__

    def __reduce__(self):
        return SeriesOfSeries, (self.grid,)

    def __eq__(self, other):
        return self.grid == other.grid if type(other) is SeriesOfSeries else NotImplemented

    def __hash__(self):
        return hash((self.grid,))

    def __repr__(self):
        return f"SeriesOfSeries(grid={self.grid!r})"

    def row_series(self, i: int) -> Series:
        return Series(self.grid[i], Flavor.HURWITZ)

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.grid)


def comul(f: Series, rows: int) -> SeriesOfSeries:
    """Comultiplication at truncation: grid[m][n] = f(m+n), for m <= rows
    and n <= order - rows (the valid triangle).  Row 0 recovers f."""
    if f.flavor is not Flavor.HURWITZ:
        raise FlavorMismatch("comultiplication lives on Hurwitz series")
    if rows < 0:
        raise ValueError("rows must be non-negative")
    if rows > f.order:
        raise OrderExhausted(f"rows {rows} exceeds order {f.order}")
    cols = f.order - rows
    return SeriesOfSeries(
        tuple(tuple(f.coeffs[m + n] for n in range(cols + 1)) for m in range(rows + 1))
    )


def psi(f: Series) -> Series:
    """Power -> Hurwitz isomorphism: multiply coefficient n by n!, read
    from the factorial row (:func:`_factorials`: kept to
    :data:`_PASCAL_CAP`, as Pascal's rows are)."""
    if f.flavor is not Flavor.POWER:
        raise FlavorMismatch("psi expects a power-flavored series")
    facts = _factorials(len(f._num))
    return Series._reduced(list(map(operator.mul, facts, f._num)), f._den, Flavor.HURWITZ)


def psi_inv(f: Series) -> Series:
    """Hurwitz -> power: divide coefficient n by n! (exact in rationals),
    as coefficient n times N!/n! over N! for the order N, the factorials
    read from the row that :func:`psi` reads."""
    if f.flavor is not Flavor.HURWITZ:
        raise FlavorMismatch("psi_inv expects a Hurwitz-flavored series")
    facts = _factorials(len(f._num))
    top = facts[f.order]
    return Series._reduced([top // k * n for k, n in zip(facts, f._num)], f._den * top,
                           Flavor.POWER)


def colift(images: Mapping, carrier, p, order: int) -> Series:
    """The universal map into the Hurwitz algebra determined by a ring
    morphism given on generators: (f(p), f(Dp), f(D²p), ...).

    ``images`` maps variables of the source carrier's elements to values in
    any commutative algebra; variables without an image stand for
    themselves, so the empty map is the identity morphism and recovers
    :func:`diamond`.  Coefficient 0 is f(p), the counit law.
    """
    from .free_diff import natural_map
    from .polynomial import Poly, evaluate

    def image(v):
        return images[v] if v in images else Poly.variable(v)

    return Series(tuple(evaluate(q, image, Fraction(1), operator.mul, Fraction(0))
                        for q in natural_map(carrier.d, p, order)), Flavor.HURWITZ)
