"""Poly arithmetic, series arithmetic, the two derivations the laws run on
and both sides of the two derived laws checked against SymPy, an
implementation that shares no code with this package.  Skipped when SymPy
is not installed."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg.carriers import (
    POLY_POOL,
    diffpoly_carrier,
    poly_sharp_carrier,
    random_diffpoly,
    random_poly,
)
from diffalg.diff_laws import (
    check_higher_leibniz,
    eval_in_carrier,
    faa_di_bruno_mismatch,
    sum_of_products,
)
from diffalg.free_diff import DVar, d_shift, dvar, natural_map
from diffalg.hurwitz import Flavor, Series, diamond, psi, psi_inv, sderive, smul
from diffalg.polynomial import Poly, derive, partial, substitute
from diffalg.rng import SplitMix64
from diffalg.scalars import binom

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


# -- the two derivations the laws run on --------------------------------------
#
# poly_sharp's derivation is sharp of the cycle w -> x -> y -> z -> w, the
# vector field x d/dw + y d/dx + z d/dy + w d/dz.  d_shift is d/dt on jet
# variables: DVar(x, n) stands for the n-th t-derivative of a function x(t).
# SymPy applies both with its own diff, and the derivative towers are
# compared up to order TOWER, the laws' n_max.  The shift's towers are
# compared as expanded expressions in the derivatives of x(t) and y(t); SymPy
# differentiates those slowly (about 0.3 s a tower), so fewer are drawn.

TOWER = 5
FIELD = {"w": "x", "x": "y", "y": "z", "z": "w"}  # the image of each variable


def sharp_oracle(q):
    """The vector field applied to a sympy.Poly in GENS."""
    return sum((q.diff(SYMBOL[v]) * sympy.Poly(SYMBOL[FIELD[v]], *GENS, domain=sympy.QQ)
                for v in POLY_POOL), sympy.Poly(0, *GENS, domain=sympy.QQ))


@pytest.mark.parametrize("p", polys(106, 15))
def test_sharp_tower(p):
    want = to_sympy(p)
    for got in natural_map(poly_sharp_carrier().d, p, TOWER):
        assert to_sympy(got) == want
        want = sharp_oracle(want)


JET_BASES = ("x", "y")
JET_ORDER = 2  # random_diffpoly's default max_order
JET_KEYS = [DVar(b, n) for b in JET_BASES for n in range(JET_ORDER + TOWER + 1)]
# DVar(x, n) as the n-th derivative of x(t): the generators of the jet polynomials
JETS = [sympy.diff(sympy.Function(v.base)(T), T, v.order) for v in JET_KEYS]


def to_jets(p: Poly):
    """p as a sympy expression in the derivatives JETS."""
    rep = {}
    for m, c in p.terms():
        exps = dict(m)
        rep[tuple(exps.get(v, 0) for v in JET_KEYS)] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(rep, *JETS, domain=sympy.QQ).as_expr()


def same(a, b) -> bool:
    return sympy.expand(a - b) == 0


def diffpolys(seed: int, n: int = 8) -> list:
    rng = SplitMix64(seed)
    return [random_diffpoly(rng, bases=JET_BASES, max_order=JET_ORDER) for _ in range(n)]


def test_jet_conversion():
    p = dvar("x", 2) * dvar("y") ** 3 + Fraction(1, 2)
    x, y = sympy.Function("x")(T), sympy.Function("y")(T)
    assert to_jets(p) == sympy.diff(x, T, 2) * y ** 3 + sympy.Rational(1, 2)
    assert not same(to_jets(p), to_jets(dvar("x", 1) * dvar("y") ** 3))


@pytest.mark.parametrize("p", diffpolys(107))
def test_shift_tower(p):
    want = to_jets(p)
    for got in natural_map(d_shift, p, TOWER):
        assert same(to_jets(got), want)
        want = sympy.diff(want, T)


@pytest.mark.parametrize("p", diffpolys(108))
def test_shift_merges_into_the_next_order(p):
    """Multiplied by x' x'', every term holds a run of consecutive orders,
    so d_shift bumps factors into their successors."""
    q = p * dvar("x", 1) * dvar("x", 2)
    assert same(to_jets(d_shift(q)), sympy.diff(to_jets(q), T))


@pytest.mark.parametrize("a, b", list(zip(diffpolys(109, 3), diffpolys(110, 3))))
def test_tower_product(a, b):
    """The Hurwitz product of two d_shift towers, on smul's sum_products
    path: coefficient n is the n-th t-derivative of a(t)·b(t), the higher
    Leibniz rule."""
    want = to_jets(a) * to_jets(b)
    for got in smul(diamond(d_shift, a, TOWER), diamond(d_shift, b, TOWER)).coeffs:
        assert same(to_jets(got), want)
        want = sympy.diff(want, T)


# -- both sides of the two derived laws ---------------------------------------
#
# Higher Leibniz and Faà di Bruno on drawn poly_sharp and diffpoly inputs:
# each side the package builds, the right-hand sides through the carriers'
# fused sum_products, equals the same side built in SymPy alone.  Both
# derivations act on SymPy's sparse polynomial ring (sympy.polys.rings) as
# sums of partials times an image: poly_sharp's sends each variable to the
# next one of the cycle, and the shift is d/dt over jet symbols, x_n for
# DVar(x, n), sending x_n to x_(n+1).  (With a dense sympy.Poly in the 18
# jet generators, one 10-draw test ran past 100 s.)  The inputs reach order
# JET_ORDER + TOWER, and the jets go one order past that.  Faà di Bruno's p
# lives in the same ring over the extra generators X1, X2, where SymPy
# takes its partials and substitutes the carrier elements.

FORMAL = ("X1", "X2")
JET_KEYS_UP = [DVar(b, n) for b in JET_BASES for n in range(JET_ORDER + TOWER + 2)]


class Oracle:
    """A carrier, the variables its drawn elements use, and its derivation
    in a SymPy ring over the carrier's variables and FORMAL."""

    def __init__(self, carrier, pool, keys, names, image):
        self.carrier, self.pool, self.keys = carrier, pool, list(keys) + list(FORMAL)
        self.ring, *gens = sympy.polys.rings.ring(list(names) + list(FORMAL), sympy.QQ)
        self.gen = dict(zip(self.keys, gens))
        self.image = {self.gen[v]: self.gen[w] for v, w in image.items()}
        self.top = [g for g in gens[:len(keys)] if g not in self.image]

    def convert(self, p: Poly):
        rep = {}
        for m, c in p.terms():
            exps = dict(m)
            rep[tuple(exps.get(v, 0) for v in self.keys)] = sympy.QQ(c.numerator, c.denominator)
        return self.ring.from_dict(rep)

    def d(self, q):
        assert all(q.degree(g) <= 0 for g in self.top)  # no jet past the last
        return sum((q.diff(g) * image for g, image in self.image.items()), self.ring.zero)

    def tower(self, q, order: int = TOWER) -> list:
        out = [q]
        for _ in range(order):
            out.append(self.d(out[-1]))
        return out


ORACLES = {
    "poly_sharp": Oracle(poly_sharp_carrier(), POLY_POOL, POLY_POOL, POLY_POOL, FIELD),
    "diffpoly": Oracle(diffpoly_carrier(),
                       [DVar(b, n) for b in JET_BASES for n in range(JET_ORDER + 1)],
                       JET_KEYS_UP, [f"{v.base}_{v.order}" for v in JET_KEYS_UP],
                       {DVar(b, n): DVar(b, n + 1)
                        for b in JET_BASES for n in range(JET_ORDER + TOWER + 1)}),
}


def drawn_polys(variables, max_terms: int, max_degree: int):
    """Polynomials of 1 to max_terms terms over variables, each of degree
    at most max_degree, with harness-sized coefficients."""
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool)
    term = st.tuples(st.lists(st.sampled_from(list(variables)), max_size=max_degree), coeff)
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda terms: sum((Poly.monomial(Counter(vs), c) for vs, c in terms), Poly.zero()))


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_higher_leibniz_both_sides(name, data):
    """D^n(ab) and sum_k C(n,k) D^k(a) D^(n-k)(b), for each n <= TOWER."""
    o = ORACLES[name]
    c = o.carrier
    a, b = (data.draw(drawn_polys(o.pool, 3, 3)) for _ in range(2))
    lhs = natural_map(c.d, a * b, TOWER)
    da, db = natural_map(c.d, a, TOWER), natural_map(c.d, b, TOWER)
    want_lhs = o.tower(o.convert(a) * o.convert(b))
    oa, ob = o.tower(o.convert(a)), o.tower(o.convert(b))
    for n in range(TOWER + 1):
        rhs = sum_of_products(c, [(binom(n, k), da[k], db[n - k]) for k in range(n + 1)])
        want_rhs = sum((binom(n, k) * oa[k] * ob[n - k] for k in range(n + 1)), o.ring.zero)
        assert o.convert(lhs[n]) == want_lhs[n]
        assert o.convert(rhs) == want_rhs
    assert check_higher_leibniz(c, TOWER, 1, 0).passed


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_faa_di_bruno_both_sides(name, data):
    """D^(n+1)(p(a, b)) and sum_k C(n,k) sum_v D^k(dp/dv(a, b)) D^(n-k+1)(v),
    for each n < TOWER, with p in X1, X2 evaluated at carrier elements."""
    o = ORACLES[name]
    c = o.carrier
    p = data.draw(drawn_polys(FORMAL, 2, 3))
    env = {v: data.draw(drawn_polys(o.pool, 2, 2)) for v in FORMAL}
    at_env = [(o.gen[v], o.convert(a)) for v, a in env.items()]
    formal = o.convert(p)

    lhs = natural_map(c.d, eval_in_carrier(c, p, env), TOWER)
    want_lhs = o.tower(formal.compose(at_env))
    names = p.variables()
    towers = {v: natural_map(c.d, env[v], TOWER) for v in names}
    partials = {v: natural_map(c.d, eval_in_carrier(c, partial(p, v), env), TOWER) for v in names}
    o_towers = {v: o.tower(o.convert(env[v])) for v in names}
    o_partials = {v: o.tower(formal.diff(o.gen[v]).compose(at_env)) for v in names}
    for n in range(TOWER):
        rhs = sum_of_products(c, [(binom(n, k), partials[v][k], towers[v][n - k + 1])
                                  for k in range(n + 1) for v in names])
        want_rhs = sum((binom(n, k) * o_partials[v][k] * o_towers[v][n - k + 1]
                        for k in range(n + 1) for v in names), o.ring.zero)
        assert o.convert(lhs[n + 1]) == want_lhs[n + 1]
        assert o.convert(rhs) == want_rhs
    assert faa_di_bruno_mismatch(c, p, env, TOWER) is None
