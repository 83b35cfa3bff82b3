"""Poly arithmetic, series arithmetic, the two derivations the laws run on,
both sides of the two derived laws, the two evaluation recursions,
comultiplication, the monad's flattening and extend checked against SymPy,
an implementation that shares no code with this package.  Skipped when
SymPy is not installed.

Every check runs in one representation, SymPy's sparse polynomial ring over
the rationals (sympy.polys.rings), built by :class:`Ring`: a polynomial over
the package's variables, a series as its generating function in t, and a
derivation as the sum of partials times the image of each generator.  Two
tests tie that ring to calculus: the jet generators are the t-derivatives of
functions x(t), y(t), and d_shift is d/dt on them.  beta and extend are
checked in that calculus alone, by sympy.diff in t."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg.carriers import (
    POLY_POOL,
    diffpoly_carrier,
    poly_sharp_carrier,
    random_diffpoly,
    random_poly,
    random_series,
)
from diffalg.diff_laws import (
    check_higher_leibniz,
    eval_in_carrier,
    faa_di_bruno_mismatch,
    pick,
    sample_poly,
    sum_of_products,
)
from diffalg.free_diff import (
    DVar,
    beta,
    d_shift,
    decode_nested,
    dvar,
    encode_nested,
    extend,
    natural_map,
)
from diffalg.hurwitz import (
    Flavor,
    Series,
    comul,
    delta_eval,
    diamond,
    omega_eval,
    psi,
    psi_inv,
    sderive,
    smul,
)
from diffalg.polynomial import Poly, derive, partial, substitute
from diffalg.rng import SplitMix64
from diffalg.rota_baxter import (
    RBElem,
    random_rbelem,
    rb_mul,
    rb_P,
    shuffle,
    shuffle_term_count,
)
from diffalg.scalars import binom

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_trunc  # noqa: E402

TOWER = 5  # the laws' n_max: each tower runs up to D^TOWER
FORMAL = ("X1", "X2")  # Faà di Bruno's p is a polynomial in these


class Ring:
    """SymPy's ring QQ[names] over the package variables keys (named by
    names, else by themselves), and on it the derivation sum_v image(v) d/dv
    for the map image from variables to variables; every variable outside
    image is a constant."""

    def __init__(self, keys, image=(), names=None):
        self.keys, image = list(keys), dict(image)
        self.ring, *gens = sympy.polys.rings.ring(list(names or keys), sympy.QQ)
        self.gen = dict(zip(self.keys, gens))
        self.image = {self.gen[v]: self.gen[w] for v, w in image.items()}
        self.last = [self.gen[w] for w in image.values() if w not in image]

    def _from_terms(self, terms):
        """The sum of c times the monomial exps over (exps, c) pairs; a
        variable outside the ring raises ValueError, so that no result can
        leave the ring unseen."""
        out = {}
        for exps, c in terms:
            foreign = exps.keys() - self.gen.keys()
            if foreign:
                raise ValueError(f"outside the ring: {sorted(map(repr, foreign))}")
            out[tuple(exps.get(v, 0) for v in self.keys)] = sympy.QQ(c.numerator, c.denominator)
        return self.ring.from_dict(out)

    def convert(self, p: Poly):
        return self._from_terms((dict(m), c) for m, c in p.terms())

    def series(self, s: Series):
        """The generating function in t: sum a_k t^k / k! (EGF) for a
        Hurwitz series, sum a_k t^k (OGF) for a power series."""
        egf = s.flavor is Flavor.HURWITZ
        return self._from_terms(({"t": k}, Fraction(c, factorial(k) if egf else 1))
                                for k, c in enumerate(s.coeffs))

    def d(self, q):
        # a generator whose image has no image would leave the ring
        assert all(q.degree(g) <= 0 for g in self.last)
        return sum((q.diff(g) * image for g, image in self.image.items()), self.ring.zero)

    def tower(self, q, order: int = TOWER) -> list:
        out = [q]
        for _ in range(order):
            out.append(self.d(out[-1]))
        return out


# poly_sharp's derivation is sharp of the cycle w -> x -> y -> z -> w, the
# vector field x d/dw + y d/dx + z d/dy + w d/dz.  d_shift is d/dt on jet
# variables: DVar(x, n), the generator x_n, is the n-th t-derivative of a
# function x(t), and d_shift sends x_n to x_(n+1).  Drawn jets reach order
# JET_ORDER, their towers JET_ORDER + TOWER, and the ring one order more.

FIELD = {"w": "x", "x": "y", "y": "z", "z": "w"}  # the image of each variable
SHARP = Ring(POLY_POOL + FORMAL, FIELD)

JET_BASES = ("x", "y")
JET_ORDER = 2  # random_diffpoly's default max_order
JET_KEYS = [DVar(b, n) for b in JET_BASES for n in range(JET_ORDER + TOWER + 2)]
JETS = Ring(JET_KEYS + list(FORMAL),
            {v: DVar(v.base, v.order + 1) for v in JET_KEYS if v.order <= JET_ORDER + TOWER},
            [f"{v.base}_{v.order}" for v in JET_KEYS] + list(FORMAL))

SERIES = Ring(("t", "X", "Y"))  # a series in t, and a polynomial in X, Y composed with two
T = SERIES.gen["t"]


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
    x, z = sympy.symbols("x z")
    assert SHARP.convert(p).as_expr() == sympy.Rational(-3, 4) * x ** 2 * z + 5


@pytest.mark.parametrize("p, q", zip(polys(101), polys(201)))
def test_add(p, q):
    assert SHARP.convert(p + q) == SHARP.convert(p) + SHARP.convert(q)
    assert SHARP.convert(p - q) == SHARP.convert(p) - SHARP.convert(q)


@pytest.mark.parametrize("p, q", zip(polys(102), polys(202)))
def test_mul(p, q):
    assert SHARP.convert(p * q) == SHARP.convert(p) * SHARP.convert(q)
    assert SHARP.convert(p * p) == SHARP.convert(p) ** 2  # cross terms always merge


@pytest.mark.parametrize("p", polys(103))
def test_partial(p):
    for v in POLY_POOL:
        assert SHARP.convert(partial(p, v)) == SHARP.convert(p).diff(SHARP.gen[v])


@pytest.mark.parametrize("p", polys(105))
def test_derive(p):
    """The pairs of derive(p) for the variable v are the partial dp/dv."""
    pairs = list(derive(p).pairs())
    for v in POLY_POOL:
        got = Poly({m: c for (m, w), c in pairs if w == v})
        assert SHARP.convert(got) == SHARP.convert(p).diff(SHARP.gen[v])


@pytest.mark.parametrize("p, env", substitutions(104))
def test_substitute(p, env):
    want = SHARP.convert(p).compose([(SHARP.gen[v], SHARP.convert(q)) for v, q in env.items()])
    assert SHARP.convert(substitute(p, env)) == want


@pytest.mark.parametrize("p", polys(106, 15))
def test_sharp_tower(p):
    got = natural_map(poly_sharp_carrier().d, p, TOWER)
    assert [SHARP.convert(q) for q in got] == SHARP.tower(SHARP.convert(p))


# -- series products ----------------------------------------------------------
#
# A Hurwitz series (a_0, ..., a_N) is its EGF and a power series its OGF, and
# the product of two series is the product of their generating functions,
# truncated past t^N.  The coefficients are large and of either sign, over
# large denominators, several of them distinct primes, so that each factor's
# common denominator is large.

PRIMES = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907)


def big_series(rng: SplitMix64, order: int, flavor: Flavor) -> Series:
    coeffs = []
    for k in range(order + 1):
        den = PRIMES[k % len(PRIMES)] if k % 3 else rng.randint(1, 10 ** 6)
        coeffs.append(Fraction(rng.randint(-10 ** 6, 10 ** 6), den))
    return Series(tuple(coeffs), flavor)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("order", [0, 1, 8, 32])
def test_series_product(order, flavor):
    rng = SplitMix64(300 + order)
    for _ in range(3):
        f, g = big_series(rng, order, flavor), big_series(rng, order, flavor)
        want = rs_trunc(SERIES.series(f) * SERIES.series(g), T, order + 1)
        assert SERIES.series(smul(f, g)) == want


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
    gf = SERIES.series
    for _ in range(3):
        f, g = big_series(rng, order, flavor), big_series(rng, order, flavor)
        num, den = rng.randint(-10 ** 6, 10 ** 6), PRIMES[rng.randint(0, len(PRIMES) - 1)]
        assert gf(f + g) == gf(f) + gf(g)
        assert gf(Fraction(num, den) * f) == gf(f) * sympy.QQ(num, den)
        assert gf(f * 7) == gf(f) * 7


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("order", [1, 8, 32])
def test_series_derivation(order, flavor):
    rng = SplitMix64(500 + order)
    for _ in range(3):
        f = big_series(rng, order, flavor)
        assert SERIES.series(sderive(f)) == SERIES.series(f).diff(T)


@pytest.mark.parametrize("order", [0, 1, 8, 32])
def test_psi(order):
    rng = SplitMix64(600 + order)
    for _ in range(3):
        f = big_series(rng, order, Flavor.POWER)
        g = big_series(rng, order, Flavor.HURWITZ)
        image, back = psi(f), psi_inv(g)
        assert (image.flavor, back.flavor) == (Flavor.HURWITZ, Flavor.POWER)
        assert SERIES.series(image) == SERIES.series(f)
        assert SERIES.series(back) == SERIES.series(g)


# -- comultiplication ----------------------------------------------------------
#
# Read a Hurwitz series f as its EGF F(x) = sum f_k x^k/k!.  Then comul(f,
# rows) is the two-variable EGF F(s + t): grid[m][n] = m!·n!·[s^m t^n] F(s + t)
# on the valid triangle, m <= rows and n <= order - rows.  F(s + t) is
# expanded by binomial powers in QQ[s, t], with no use of the grid's indices.

EGF2, S2, T2 = sympy.polys.rings.ring("s, t", sympy.QQ)


@pytest.mark.parametrize("order", [0, 1, 8, 10])
def test_comul_is_the_egf_at_s_plus_t(order):
    rng = SplitMix64(700 + order)
    for _ in range(3):
        f = big_series(rng, order, Flavor.HURWITZ)
        shifted = EGF2.zero
        for k, c in enumerate(f.coeffs):
            shifted += (S2 + T2) ** k * qq(c) / factorial(k)
        for rows in range(order + 1):
            grid = comul(f, rows).grid
            assert [len(r) for r in grid] == [order - rows + 1] * (rows + 1)
            for m, row in enumerate(grid):
                assert [qq(c) for c in row] == [
                    shifted.get((m, n), sympy.QQ(0)) * factorial(m) * factorial(n)
                    for n in range(len(row))]


# -- the evaluation recursions ------------------------------------------------


class TestSymbolicCompositionOracle:
    """Both evaluation recursions against composition in SymPy.  Cauchy
    evaluation of p at power series is the composite of p with their OGFs,
    so delta_eval(p, env, n) for n <= N is the OGF of that composite
    truncated past t^N; omega_eval is the same with EGFs.  Truncation is
    sound because dropped t^k terms (k > N) only influence coefficients
    above N."""

    ORDER = 8

    def check(self, seed: int, flavor: Flavor, recursion) -> None:
        rng = SplitMix64(seed)
        for _ in range(20):
            p = sample_poly(rng, pick(("X", "Y")), 3, 3)
            env = {v: random_series(rng, self.ORDER, flavor) for v in ("X", "Y")}
            composed = SERIES.convert(p).compose(
                [(SERIES.gen[v], SERIES.series(s)) for v, s in env.items()])
            got = Series(tuple(recursion(p, env, n) for n in range(self.ORDER + 1)), flavor)
            assert SERIES.series(got) == rs_trunc(composed, T, self.ORDER + 1)

    def test_delta_is_truncated_composition(self):
        self.check(71, Flavor.POWER, delta_eval)

    def test_omega_is_truncated_egf_composition(self):
        self.check(73, Flavor.HURWITZ, omega_eval)


# -- the two derivations the laws run on --------------------------------------
#
# Each tower of poly_sharp's derivation and of d_shift equals the tower of
# the ring's derivation, up to order TOWER.  The calculus anchor: the jet
# generators, written as expressions, are the derivatives of x(t) and y(t),
# and d_shift there is SymPy's d/dt.

TIME = sympy.Symbol("t")
JET_FUNCTIONS = ([sympy.Derivative(sympy.Function(v.base)(TIME), (TIME, v.order))
                  for v in JET_KEYS] + list(sympy.symbols(FORMAL)))


def to_jets(p: Poly):
    """p as a sympy expression in the derivatives of x(t) and y(t)."""
    return JETS.convert(p).as_expr(*JET_FUNCTIONS)


def same(a, b) -> bool:
    return sympy.expand(a - b) == 0


def test_a_variable_outside_the_ring_raises():
    """A jet past the ring's order, a base other than x and y, or a plain
    name is refused, not read as exponent 0."""
    for p in (dvar("x", 9), dvar("z") + 1, Poly.variable("x")):
        with pytest.raises(ValueError, match="outside the ring"):
            to_jets(p)
    assert same(to_jets(dvar("x", 8) * dvar("y")), JET_FUNCTIONS[8] * JET_FUNCTIONS[9])


def jets(rng: SplitMix64) -> Poly:
    return random_diffpoly(rng, bases=JET_BASES, max_order=JET_ORDER)


def diffpolys(seed: int, n: int) -> list:
    rng = SplitMix64(seed)
    return [jets(rng) for _ in range(n)]


def test_jet_conversion():
    p = dvar("x", 2) * dvar("y") ** 3 + Fraction(1, 2)
    x, y = sympy.Function("x")(TIME), sympy.Function("y")(TIME)
    assert to_jets(p) == sympy.diff(x, TIME, 2) * y ** 3 + sympy.Rational(1, 2)
    assert not same(to_jets(p), to_jets(dvar("x", 1) * dvar("y") ** 3))


@pytest.mark.parametrize("p", diffpolys(108, 8))
def test_shift_merges_into_the_next_order(p):
    """Multiplied by x' x'', every term holds a run of consecutive orders,
    so d_shift bumps factors into their successors."""
    q = p * dvar("x", 1) * dvar("x", 2)
    assert same(to_jets(d_shift(q)), sympy.diff(to_jets(q), TIME))


@pytest.mark.parametrize("p", diffpolys(107, 25))
def test_shift_tower(p):
    got = natural_map(d_shift, p, TOWER)
    assert [JETS.convert(q) for q in got] == JETS.tower(JETS.convert(p))


@pytest.mark.parametrize("a, b", list(zip(diffpolys(109, 10), diffpolys(110, 10))))
def test_tower_product(a, b):
    """The Hurwitz product of two d_shift towers, on smul's sum_products
    path: coefficient n is the n-th t-derivative of a(t)·b(t), the higher
    Leibniz rule."""
    got = smul(diamond(d_shift, a, TOWER), diamond(d_shift, b, TOWER)).coeffs
    assert [JETS.convert(q) for q in got] == JETS.tower(JETS.convert(a) * JETS.convert(b))


# -- the monad's flattening and extend on the jet ring ------------------------
#
# beta sends the outer variable (E, n) to the n-th derivative of the jet
# polynomial that E encodes, and extend sends (x, n) to the n-th derivative
# of the image of x under diffpoly's derivation, d_shift.  The references
# take those derivatives with sympy.diff on the jet functions of x(t) and
# y(t) and multiply the terms out in SymPy, not with d_shift, substitute or
# evaluate.  Inner jets reach order JET_ORDER and outer orders OUTER_ORDER,
# so every result stays inside the ring.

OUTER_ORDER = 2


def expanded(p: Poly, value):
    """p with each variable v replaced by the sympy expression value(v),
    multiplied out."""
    return sympy.expand(sum(sympy.Rational(c.numerator, c.denominator)
                            * sympy.Mul(*(value(v) ** e for v, e in m)) for m, c in p.terms()))


def jet_derivative(q: Poly, order: int):
    assert set(q.variables()) <= set(JET_KEYS)
    return sympy.diff(to_jets(q), TIME, order)


def outer_poly(rng: SplitMix64, bases: list) -> Poly:
    """A polynomial over (base, order) variables, order up to OUTER_ORDER."""
    return sample_poly(rng, lambda r: DVar(r.choice(bases), r.randint(0, OUTER_ORDER)), 3, 3)


def nested_polys(seed: int, n: int) -> list:
    """Outer polynomials whose base names encode two drawn jet polynomials."""
    rng = SplitMix64(seed)
    return [outer_poly(rng, [encode_nested(jets(rng)) for _ in range(2)]) for _ in range(n)]


def extend_cases(seed: int, n: int) -> list:
    """(p, images) pairs: p over the bases u and v, each with a jet image."""
    rng = SplitMix64(seed)
    cases = []
    for _ in range(n):
        images = {"u": jets(rng), "v": jets(rng)}
        cases.append((outer_poly(rng, ["u", "v"]), images))
    return cases


@pytest.mark.parametrize("t", nested_polys(111, 12))
def test_beta_differentiates_each_encoded_jet(t):
    got = beta(t)
    assert set(got.variables()) <= set(JET_KEYS)
    want = expanded(t, lambda v: jet_derivative(decode_nested(v.base), v.order))
    assert same(to_jets(got), want)


@pytest.mark.parametrize("p, images", extend_cases(112, 12))
def test_extend_differentiates_each_image(p, images):
    got = extend(images, diffpoly_carrier(), p)
    assert set(got.variables()) <= set(JET_KEYS)
    want = expanded(p, lambda v: jet_derivative(images[v.base], v.order))
    assert same(to_jets(got), want)


# -- both sides of the two derived laws ---------------------------------------
#
# Higher Leibniz and Faà di Bruno on drawn poly_sharp and diffpoly inputs:
# each side the package builds, the right-hand sides through the carriers'
# fused sum_products, equals the same side built in the carrier's ring alone.
# Faà di Bruno's p lives in the same ring over the extra generators FORMAL,
# where SymPy takes its partials and substitutes the carrier elements.

ORACLES = {  # the carrier, the variables of its drawn elements, and its ring
    "poly_sharp": (poly_sharp_carrier(), POLY_POOL, SHARP),
    "diffpoly": (diffpoly_carrier(),
                 [DVar(b, n) for b in JET_BASES for n in range(JET_ORDER + 1)], JETS),
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
    c, pool, o = ORACLES[name]
    a, b = (data.draw(drawn_polys(pool, 3, 3)) for _ in range(2))
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
    c, pool, o = ORACLES[name]
    p = data.draw(drawn_polys(FORMAL, 2, 3))
    env = {v: data.draw(drawn_polys(pool, 2, 2)) for v in FORMAL}
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


# -- the Rota-Baxter side by iterated integrals --------------------------------
#
# The shuffle product is the product of Chen's iterated integrals (K.-T. Chen,
# Ann. Math. 1957; R. Ree, Ann. Math. 1958).  Send each letter variable to a
# polynomial in t, the word w·m to I(w·m)(t) = ∫₀ᵗ m(s)·I(w)(s) ds with
# I(()) = 1, and the term (w, tail) to tail(t)·I(w)(t).  That map is an
# algebra morphism from the shuffle algebra into QQ[t], and it sends rb_P to
# ∫₀ᵗ.  It is multilinear in the letters, so a word of polynomial letters
# maps without expanding it into monomial-letter words.

RB_VARS = ("x", "y", "a", "b")
ITERATED = Ring(("t",) + RB_VARS)
S = ITERATED.gen["t"]
AT_T = ((ITERATED.gen["x"], 1 + 2 * S), (ITERATED.gen["y"], 3 + S ** 2),
        (ITERATED.gen["a"], S - sympy.QQ(1, 2)), (ITERATED.gen["b"], 2 - S))
AT_ONE = tuple((ITERATED.gen[v], ITERATED.ring.one) for v in RB_VARS)  # every variable at 1

# Letters for RBElem.term and shuffle: with denominators, sums of monomials,
# a constant part, a bare monomial (coefficient 1) and zero.
LETTERS = (Poly.variable("x"), Poly.variable("a") * Fraction(1, 2),
           Poly.variable("x") * Fraction(1, 2) + Poly.variable("y") * Fraction(2, 3),
           Poly.monomial({"a": 1, "b": 1}, Fraction(-3, 4)), 2 * Poly.variable("y") - 1,
           (("x", 1),), Poly.zero())
TAILS = (Poly.one(), Poly.variable("x") * Fraction(3, 2) - Poly.variable("y"),
         Poly.const(Fraction(5, 6)), Poly.monomial({"y": 2}))


@lru_cache(maxsize=None)
def at_t(letter, at=AT_T):
    """A letter, tail or bare monomial of the package as a polynomial in t."""
    q = ITERATED.convert(letter) if isinstance(letter, Poly) else \
        ITERATED._from_terms([(dict(letter), Fraction(1))])
    return q.compose(list(at))


def integral(q):
    """∫₀ᵗ q(s) ds, for q a polynomial in t alone."""
    return ITERATED.ring.from_dict({(k + 1, *rest): c / (k + 1)
                                    for (k, *rest), c in q.terms()})


@lru_cache(maxsize=None)
def iterated(word: tuple, at=AT_T):
    """I(word)(t), by the recursion on the last letter (kept per prefix)."""
    if not word:
        return ITERATED.ring.one
    return integral(at_t(word[-1], at) * iterated(word[:-1], at))


def image(s: RBElem):
    return sum((at_t(Poly.monomial(dict(tail), c)) * iterated(w) for (w, tail), c in s.terms()),
               ITERATED.ring.zero)


def qq(c):
    c = Fraction(c)
    return sympy.QQ(c.numerator, c.denominator)


def letter_word(rng: SplitMix64, most: int) -> tuple:
    return tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, most)))


def term_args(rng: SplitMix64) -> tuple:
    """(letters, tail, coeff) for RBElem.term, drawn from LETTERS and TAILS."""
    return letter_word(rng, 3), rng.choice(TAILS), rng.choice((1, -2, Fraction(7, 3)))


def rb_elements(seed: int, n: int) -> list:
    """Every other element from random_rbelem, which builds its (word,
    tail) keys directly; the others are sums of one or two RBElem.term
    calls, which go through the word expansion."""
    rng = SplitMix64(seed)
    out = []
    for k in range(n):
        if k % 2:
            out.append(random_rbelem(rng))
            continue
        s = RBElem()
        for _ in range(rng.randint(1, 2)):
            s = s + RBElem.term(*term_args(rng))
        out.append(s)
    return out


class TestIteratedIntegralOracle:
    def test_map_examples(self):
        """x = 1 + 2t: I([x]) = t + t², I([x, x]) = (t + t²)²/2, and a
        tail multiplies."""
        x = Poly.variable("x")
        assert iterated((x,)) == S + S ** 2
        assert iterated((x, x)) == (S + S ** 2) ** 2 / 2
        assert image(RBElem.term([x], x)) == (1 + 2 * S) * (S + S ** 2)

    def test_term_is_the_integral_of_its_letters(self):
        """RBElem.term(letters, tail, coeff) maps to coeff·tail(t)·I(letters),
        with I taken letter by letter, unexpanded."""
        rng = SplitMix64(70)
        for _ in range(200):
            letters, tail, coeff = term_args(rng)
            want = qq(coeff) * at_t(tail) * iterated(letters)
            assert image(RBElem.term(letters, tail, coeff)) == want, (letters, tail, coeff)

    def test_rb_mul_is_the_product(self):
        """300 pairs, half of the elements through RBElem.term."""
        for s, t in zip(rb_elements(71, 300), rb_elements(72, 300)):
            assert image(rb_mul(s, t)) == image(s) * image(t), (s, t)

    def test_rb_P_is_the_integral(self):
        for s in rb_elements(73, 100):
            assert image(rb_P(s)) == integral(image(s)), s

    def test_shuffle_is_the_product(self):
        """shuffle(u, v) on polynomial letters, against the iterated
        integrals of u and v taken letter by letter, unexpanded."""
        rng = SplitMix64(74)
        for _ in range(100):
            u, v = letter_word(rng, 4), letter_word(rng, 4)
            got = sum((qq(c) * iterated(w) for w, c in shuffle(u, v).items()), ITERATED.ring.zero)
            assert got == iterated(u) * iterated(v), (u, v)

    def test_term_count(self):
        """With every letter variable at 1, I(u) = σ(u)·t^j/j! for the
        product σ(u) of the letters' coefficient sums, so the count is
        (j+k)! times the top coefficient of I(u)·I(v)."""
        rng = SplitMix64(75)
        for _ in range(100):
            u, v = letter_word(rng, 4), letter_word(rng, 4)
            n = len(u) + len(v)
            top = (iterated(u, AT_ONE) * iterated(v, AT_ONE)).coeff(S ** n)
            assert shuffle_term_count(u, v) == top * factorial(n), (u, v)
