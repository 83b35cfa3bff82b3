"""Poly arithmetic and series arithmetic checked against SymPy, an
implementation that shares no code with this package.  Skipped when SymPy
is not installed."""

from fractions import Fraction

import pytest

from diffalg.carriers import POLY_POOL, random_poly
from diffalg.hurwitz import Flavor, Series, psi, psi_inv, sderive, smul
from diffalg.polynomial import Poly, derive, partial, substitute
from diffalg.rng import SplitMix64

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols(POLY_POOL)
SYMBOL = dict(zip(POLY_POOL, GENS))


def to_sympy(p: Poly):
    """The same polynomial as a sympy.Poly over QQ in the generators GENS."""
    rep = {}
    for m, c in p.terms():
        exps = dict(m)
        rep[tuple(exps.get(v, 0) for v in POLY_POOL)] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(rep, *GENS, domain=sympy.QQ)


def polys(seed: int, n: int = 25) -> list:
    rng = SplitMix64(seed)
    return [random_poly(rng) for _ in range(n)]


def substitutions(seed: int, n: int = 15) -> list:
    """(p, env) pairs: env sends x and y to small polynomials."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(n):
        p = random_poly(rng, max_degree=3)
        out.append((p, {v: random_poly(rng, size=2, max_degree=2) for v in ("x", "y")}))
    return out


def test_conversion_round_trip():
    p = Poly.monomial({"x": 2, "z": 1}, Fraction(-3, 4)) + 5
    assert to_sympy(p).as_expr() == sympy.Rational(-3, 4) * SYMBOL["x"] ** 2 * SYMBOL["z"] + 5


@pytest.mark.parametrize("p, q", zip(polys(101), polys(201)))
def test_add(p, q):
    assert to_sympy(p + q) == to_sympy(p) + to_sympy(q)
    assert to_sympy(p - q) == to_sympy(p) - to_sympy(q)


@pytest.mark.parametrize("p, q", zip(polys(102), polys(202)))
def test_mul(p, q):
    assert to_sympy(p * q) == to_sympy(p) * to_sympy(q)
    assert to_sympy(p * p) == to_sympy(p) ** 2  # cross terms always merge


@pytest.mark.parametrize("p", polys(103))
def test_partial(p):
    for v in POLY_POOL:
        assert to_sympy(partial(p, v)) == to_sympy(p).diff(SYMBOL[v])


@pytest.mark.parametrize("p", polys(105))
def test_derive(p):
    """The pairs of derive(p) for the variable v are the partial dp/dv."""
    pairs = list(derive(p).pairs())
    for v in POLY_POOL:
        got = Poly({m: c for (m, w), c in pairs if w == v})
        assert to_sympy(got) == to_sympy(p).diff(SYMBOL[v])


@pytest.mark.parametrize("p, env", substitutions(104))
def test_substitute(p, env):
    want = to_sympy(p).as_expr().subs({SYMBOL[v]: to_sympy(q).as_expr() for v, q in env.items()},
                                      simultaneous=True)
    assert to_sympy(substitute(p, env)) == sympy.Poly(want, *GENS, domain=sympy.QQ)


# -- series products ----------------------------------------------------------
#
# A Hurwitz series (a_0, ..., a_N) is the exponential generating function
# sum a_k t^k / k!, and its product is the EGF product; a power series is the
# ordinary generating function sum a_k t^k, and its product is the OGF
# product.  Both are checked up to t^N.  The coefficients are large and of
# either sign, over large denominators, several of them distinct primes, so
# that each factor's common denominator is large.

T = sympy.Symbol("t")
PRIMES = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907)


def big_series(rng: SplitMix64, order: int, flavor: Flavor) -> Series:
    coeffs = []
    for k in range(order + 1):
        den = PRIMES[k % len(PRIMES)] if k % 3 else rng.randint(1, 10 ** 6)
        coeffs.append(Fraction(rng.randint(-10 ** 6, 10 ** 6), den))
    return Series(tuple(coeffs), flavor)


def generating_function(s: Series):
    egf = s.flavor is Flavor.HURWITZ
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * T ** k
                          / (sympy.factorial(k) if egf else 1)
                          for k, c in enumerate(s.coeffs)), T, domain=sympy.QQ)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("order", [0, 1, 8, 32])
def test_series_product(order, flavor):
    rng = SplitMix64(300 + order)
    for _ in range(3):
        f, g = big_series(rng, order, flavor), big_series(rng, order, flavor)
        product = generating_function(f) * generating_function(g)
        scale = sympy.factorial if flavor is Flavor.HURWITZ else (lambda n: 1)
        want = [product.coeff_monomial(T ** n) * scale(n) for n in range(order + 1)]
        got = smul(f, g).coeffs
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == want


# -- series sums, scalar products, derivation and psi ------------------------
#
# The sum and scalar products are those of the generating functions.  The
# derivation is d/dt of the generating function: the shift for an EGF, the
# scaled shift for an OGF.  psi sends a power series to the Hurwitz series
# with the same generating function (OGF = EGF after multiplying
# coefficient n by n!), and psi_inv reads it back.


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("order", [0, 1, 8, 32])
def test_series_sum_and_scalar(order, flavor):
    rng = SplitMix64(400 + order)
    for _ in range(3):
        f, g = big_series(rng, order, flavor), big_series(rng, order, flavor)
        num, den = rng.randint(-10 ** 6, 10 ** 6), PRIMES[rng.randint(0, len(PRIMES) - 1)]
        assert generating_function(f + g) == generating_function(f) + generating_function(g)
        assert generating_function(Fraction(num, den) * f) == (generating_function(f)
                                                               * sympy.Rational(num, den))
        assert generating_function(f * 7) == generating_function(f) * 7


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("order", [1, 8, 32])
def test_series_derivation(order, flavor):
    rng = SplitMix64(500 + order)
    for _ in range(3):
        f = big_series(rng, order, flavor)
        assert generating_function(sderive(f)) == generating_function(f).diff(T)


@pytest.mark.parametrize("order", [0, 1, 8, 32])
def test_psi(order):
    rng = SplitMix64(600 + order)
    for _ in range(3):
        f = big_series(rng, order, Flavor.POWER)
        g = big_series(rng, order, Flavor.HURWITZ)
        image, back = psi(f), psi_inv(g)
        assert (image.flavor, back.flavor) == (Flavor.HURWITZ, Flavor.POWER)
        assert generating_function(image) == generating_function(f)
        assert generating_function(back) == generating_function(g)
