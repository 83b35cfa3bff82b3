import copy
import gc
import math
import numbers
import operator
import pickle
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffalg import hurwitz, polynomial
from diffalg.carriers import diffpoly_carrier, random_diffpoly, random_poly, random_series
from diffalg.diff_laws import random_fraction
from diffalg.errors import (
    FlavorMismatch,
    MixedVariables,
    OrderExhausted,
    OrderMismatch,
    UnboundVariable,
)
from diffalg.free_diff import d_shift, dvar
from diffalg.hurwitz import (
    Flavor,
    Series,
    SeriesOfSeries,
    _components,
    colift,
    comul,
    delta_eval,
    diamond,
    omega_eval,
    psi,
    psi_inv,
    ring_eval,
    sderive,
    smul,
    smul_trunc,
    sum_smul,
    sunit,
)
from diffalg.polynomial import Poly, eta, partial, sum_convolution, sum_products
from diffalg.rng import SplitMix64
from diffalg.scalars import binom
from diffalg.suites import check_comonad_laws, check_eval_pointwise, check_psi_laws

F = Fraction


@numbers.Integral.register
class Int64:
    """Stands in for a fixed-width integer such as numpy's int64: a
    numbers.Integral that is no int, whose arithmetic wraps around."""


def series(*values, flavor=Flavor.HURWITZ):
    return Series(tuple(F(v) for v in values), flavor)


class TestProduct:
    def test_hurwitz_all_ones(self):
        # brute-force oracle: component n of ones*ones is sum_k C(n,k) = 2^n
        ones = series(1, 1, 1, 1, 1)
        got = smul(ones, ones)
        for n in range(5):
            assert got.coeffs[n] == sum(binom(n, k) for k in range(n + 1)) == 2 ** n

    def test_power_all_ones(self):
        # Cauchy convolution of all-ones: component n is n+1
        ones = series(1, 1, 1, 1, 1, flavor=Flavor.POWER)
        got = smul(ones, ones)
        assert got.coeffs == (F(1), F(2), F(3), F(4), F(5))

    def test_pow_is_repeated_product(self):
        rng = SplitMix64(6)
        for flavor in Flavor:
            f = random_series(rng, 5, flavor)
            want = sunit(5, flavor)
            for n in range(6):
                assert f ** n == want
                want = smul(want, f)
        with pytest.raises(ValueError, match="exponent must be a natural number"):
            f ** -1

    def test_unit(self):
        rng = SplitMix64(5)
        for flavor in Flavor:
            f = random_series(rng, 6, flavor)
            assert smul(sunit(6, flavor), f) == f
            assert smul(f, sunit(6, flavor)) == f

    def test_commutative_associative(self):
        rng = SplitMix64(7)
        for flavor in Flavor:
            for _ in range(10):
                f, g, h = (random_series(rng, 5, flavor) for _ in range(3))
                assert smul(f, g) == smul(g, f)
                assert smul(smul(f, g), h) == smul(f, smul(g, h))

    def test_strictness(self):
        f = series(1, 2, 3)
        with pytest.raises(FlavorMismatch, match="hurwitz \\* power"):
            smul(f, series(1, 2, 3, flavor=Flavor.POWER))
        with pytest.raises(OrderMismatch, match="order 2 \\* order 1"):
            smul(f, series(1, 2))
        assert smul_trunc(f, series(1, 2)) == smul(f.truncate(1), series(1, 2))

    def test_window_equality(self):
        f = series(1, 2, 3)
        g = series(1, 2)
        assert f != g
        assert f.window_eq(g)
        assert not f.window_eq(series(1, 2, flavor=Flavor.POWER))


def plain_convolution(f: Series, g: Series) -> tuple:
    """The product written out term by term, with math.comb weights."""
    hurwitz = f.flavor is Flavor.HURWITZ
    return tuple(sum((math.comb(n, k) if hurwitz else 1) * f.coeffs[k] * g.coeffs[n - k]
                     for k in range(n + 1))
                 for n in range(f.order + 1))


COEFFICIENTS = {
    "fraction": st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6),
    "int": st.integers(-10 ** 6, 10 ** 6),
    "mixed": st.one_of(st.integers(-50, 50),
                       st.fractions(min_value=-50, max_value=50, max_denominator=1000)),
}


@st.composite
def series_pairs(draw, kind: str):
    order = draw(st.integers(0, 12))
    flavor = draw(st.sampled_from(list(Flavor)))
    coeffs = st.lists(COEFFICIENTS[kind], min_size=order + 1, max_size=order + 1)
    return Series(tuple(draw(coeffs)), flavor), Series(tuple(draw(coeffs)), flavor)


def component_fold(triples) -> list:
    """Each component of the sum of w·f·g over the (int w, f, g) triples as
    one polynomial.sum_products of its (w·C(n, k), f[k], g[n-k]) triples
    (weight w for power), on the shared window."""
    order = min(min(f.order, g.order) for _, f, g in triples)
    hurwitz = triples[0][1].flavor is Flavor.HURWITZ
    return [sum_products((w * (math.comb(n, k) if hurwitz else 1), f.coeffs[k], g.coeffs[n - k])
                         for w, f, g in triples for k in range(n + 1))
            for n in range(order + 1)]


def poly_series(rng, order: int, flavor, draw) -> Series:
    """A series of draw(rng) coefficients, each scaled by a harness fraction,
    so the coefficients have mixed denominators."""
    return Series(tuple(draw(rng) * random_fraction(rng) for _ in range(order + 1)), flavor)


def huge_exponents(rng) -> Poly:
    """Up to three terms in x, y, z with exponents from 2**70 on."""
    p = Poly.zero()
    for _ in range(rng.randint(1, 3)):
        exps = {v: 2 ** 70 + rng.randint(0, 2) if rng.randint(0, 1) else rng.randint(0, 2)
                for v in "xyz"}
        p = p + Poly.monomial(exps, random_fraction(rng) or 1)
    return p


def zero_or_constant(rng) -> Poly:
    """Zero, a nonzero constant, or a random polynomial in x and y."""
    kind = rng.randint(0, 2)
    if kind == 0:
        return Poly.zero()
    if kind == 1:
        return Poly.const(random_fraction(rng) or 1)
    return random_poly(rng, 3, ("x", "y"), max_degree=2)


# The coefficient draws of the packed-kernel tests: derivative variables,
# plain names, exponents past 2**70, and zeros and constants.
POLY_DRAWS = {
    "dvar": lambda rng: random_diffpoly(rng, 3, max_degree=2),
    "str": lambda rng: random_poly(rng, 3, max_degree=3),
    "huge_exponents": huge_exponents,
    "zero_and_constant": zero_or_constant,
}


class TestKernel:
    """smul over exact rationals runs on integer numerators with one
    denominator per factor; these pin it to the textbook convolution."""

    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    @given(data=st.data())
    def test_matches_plain_convolution(self, kind, data):
        f, g = data.draw(series_pairs(kind))
        got = smul(f, g)
        assert got.coeffs == plain_convolution(f, g)
        assert all(type(c) is Fraction for c in got.coeffs)

    def test_polynomial_coefficients(self):
        """Coefficients that are not rationals take the term-by-term loop."""
        x, y = eta("x"), eta("y")
        for flavor in Flavor:
            f = Series((x, F(1, 2), x * y - 3, F(0)), flavor)
            g = Series((F(2), y, x ** 2, F(-1, 3) * y), flavor)
            assert smul(f, g).coeffs == plain_convolution(f, g)

    def test_poly_towers_order_8(self):
        """Hurwitz products of Poly-coefficient towers are the tower of the
        product (the higher Leibniz rule) at order 8."""
        rng = SplitMix64(59)
        for _ in range(3):
            a, b = random_diffpoly(rng, 2, max_degree=2), random_diffpoly(rng, 2, max_degree=2)
            assert smul(diamond(d_shift, a, 8), diamond(d_shift, b, 8)) == diamond(d_shift, a * b, 8)

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_polynomial_series_match_plain_convolution(self, flavor):
        """Poly coefficients with mixed denominators, on the packed
        kernel: each component equals the sum written out term by term."""
        rng = SplitMix64(67)
        for order in (0, 1, 4, 8, hurwitz._PASCAL_CAP + 1):
            f, g = (Series(tuple(random_diffpoly(rng, 3, max_degree=2) * random_fraction(rng)
                                 for _ in range(order + 1)), flavor) for _ in range(2))
            got = smul(f, g)
            assert got.coeffs == plain_convolution(f, g)
            assert all(type(c) is Poly for c in got.coeffs)

    @pytest.mark.parametrize("flavor", list(Flavor))
    @pytest.mark.parametrize("draw", sorted(POLY_DRAWS))
    def test_packed_kernel_matches_the_component_fold(self, flavor, draw):
        """smul and sum_smul over Poly coefficients (several pairs, mixed
        denominators, unequal windows) give the numerators, in the same
        key order, and the denominators of one sum_products per component."""
        rng = SplitMix64(79)
        for _ in range(4):
            order = rng.randint(0, 6)
            f, g = (poly_series(rng, order, flavor, POLY_DRAWS[draw]) for _ in range(2))
            triples = [(1, f, g)]
            for _ in range(rng.randint(1, 3)):
                triples.append((rng.randint(-3, 3) or 1,
                                *(poly_series(rng, order + rng.randint(0, 2), flavor,
                                              POLY_DRAWS[draw]) for _ in range(2))))
            for got, want in ((smul(f, g), component_fold([(1, f, g)])),
                              (sum_smul(triples), component_fold(triples))):
                assert len(got.coeffs) == len(want)
                for c, p in zip(got.coeffs, want):
                    assert type(c) is Poly
                    assert list(c._num.items()) == list(p._num.items())
                    assert c._den == p._den

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_packed_kernel_cancellation(self, flavor):
        """Components that cancel whole or in part keep the fold's surviving
        keys in the fold's order; a sum that cancels is all zero."""
        x, y, z = eta("x"), eta("y"), eta("z")
        f = Series((x, x, -y, Poly.zero()), flavor)
        g = Series((x, -x, x * z + y, Poly.const(3)), flavor)
        h = Series((y + z, x * y, Poly.const(F(-2, 3)), z ** 2), flavor)
        triples = [(1, f, g), (2, g, h), (-1, f, g), (1, f, h), (-1, f, h)]
        for got, want in ((smul(f, g), component_fold([(1, f, g)])),
                          (sum_smul(triples), component_fold(triples))):
            assert [list(c._num.items()) for c in got.coeffs] == \
                [list(p._num.items()) for p in want]
            assert [c._den for c in got.coeffs] == [p._den for p in want]
        # x·(-x) + x·x is 0; the x·y of x·(x·z + y) cancels against -y·x.
        assert smul(f, g).coeffs[1] == Poly.zero()
        assert set(smul(f, g).coeffs[2]._num) == {(("x", 2),), (("x", 2), ("z", 1))}
        assert sum_smul([(1, f, g), (-1, f, g)]).coeffs == (Poly.zero(),) * 4

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_packed_kernel_mixed_variables(self, flavor):
        """A str coefficient times a DVar one raises MixedVariables with the
        message a * b and sum_products give."""
        f = Series((Poly.const(2), eta("x"), eta("y")), flavor)
        g = Series((dvar("x") + 1, dvar("y"), Poly.const(1)), flavor)
        with pytest.raises(MixedVariables) as want:
            component_fold([(1, f, g)])
        assert str(want.value) == "variables of different kinds in one monomial: DVar, str"
        for run in (lambda: smul(f, g), lambda: sum_smul([(1, g, g), (1, f, g)])):
            with pytest.raises(MixedVariables) as got:
                run()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("order", [hurwitz._PASCAL_CAP, hurwitz._PASCAL_CAP + 1,
                                       hurwitz._PASCAL_CAP + 2])
    def test_rational_series_past_the_kept_rows(self, order):
        """Rational products at the last kept Pascal row and past it, where
        the rows are built in the call."""
        rng = SplitMix64(73)
        for flavor in Flavor:
            f, g = (random_series(rng, order, flavor) for _ in range(2))
            assert smul(f, g).coeffs == plain_convolution(f, g)

    def test_mixed_polynomial_and_scalar_coefficients(self):
        """A series that mixes Poly and int coefficients keeps the
        term-by-term path: values and coefficient types are unchanged."""
        x, y = eta("x"), eta("y")
        for flavor in Flavor:
            f, g = Series((1, x, 0), flavor), Series((2, 3, y), flavor)
            got = smul(f, g)
            assert got.coeffs == plain_convolution(f, g)
            assert [type(c) for c in got.coeffs] == [int, Poly, Poly]
        tower = Series((dvar("x"), 0, 0, 0), Flavor.HURWITZ)
        got = smul(tower, tower)
        assert got.coeffs == (dvar("x") ** 2, 0, 0, 0)
        assert [type(c) for c in got.coeffs] == [Poly] * 4

    @pytest.mark.parametrize("order", [0, 3, 8])
    def test_one_reduction_per_component(self, order, monkeypatch):
        """An order-N product of Poly-coefficient series reduces N+1 sums,
        one per component, not one per summand as a fold would: each on
        its lists (_from_lists), and none through _from_ints."""
        rng = SplitMix64(71)
        f, g = (diamond(d_shift, random_diffpoly(rng, 3, max_degree=2), order)
                for _ in range(2))
        reductions, dict_reductions = [], []
        original = Poly._from_lists.__func__

        def counting(cls, keys, nums, den):
            reductions.append(len(keys))
            return original(cls, keys, nums, den)

        monkeypatch.setattr(Poly, "_from_lists", classmethod(counting))
        monkeypatch.setattr(Poly, "_from_ints", classmethod(
            lambda cls, sums, den: dict_reductions.append(sums)))
        got = smul(f, g)
        monkeypatch.undo()
        assert len(reductions) == order + 1
        assert dict_reductions == []
        assert got.coeffs == plain_convolution(f, g)

    def test_zero_and_order_zero(self):
        rng = SplitMix64(61)
        for flavor in Flavor:
            zero = Series((F(0),) * 7, flavor)
            f = random_series(rng, 6, flavor)
            assert smul(zero, f) == zero
            assert smul(f, zero) == zero
            single = smul(Series((F(3, 4),), flavor), Series((F(-2, 3),), flavor))
            assert single.coeffs == (F(-1, 2),)


def convolution_fold(pairs, order: int, rows) -> list:
    """sum_convolution's reference: component n as one sum_products of the
    (w·row[k], a[k], b[n-k]) triples over the pairs (row None: weight w)."""
    return [sum_products((w * (row[k] if row else 1), a[k], b[n - k])
                         for w, a, b in pairs for k in range(n + 1))
            for n, row in zip(range(order + 1), rows)]


class TestSumConvolution:
    """The reduction of each packed component, against the per-component
    sum_products fold: the numerators in the fold's key order and its
    denominator, where a component cancels whole and where its numerators
    share a factor with the denominator."""

    x, y, z = eta("x"), eta("y"), eta("z")

    def check(self, pairs, rows) -> list:
        got = sum_convolution(pairs, 2, rows)
        want = convolution_fold(pairs, 2, rows)
        assert len(got) == len(want) == 3
        for c, p in zip(got, want):
            assert type(c) is Poly
            assert list(c._num.items()) == list(p._num.items())
            assert c._den == p._den
        return got

    def test_a_component_that_cancels(self):
        """Power weights: component 1 is (1/2)x·(-2/5)x + (1/3)x·(3/5)x, 0
        over the lcm 30."""
        x = self.x
        a, b = (F(1, 2) * x, F(1, 3) * x, Poly.zero()), (F(3, 5) * x, F(-2, 5) * x, Poly.zero())
        got = self.check([(1, a, b)], (None,) * 3)
        assert got[1]._num == {} and got[1]._den == 1 and got[1] == Poly.zero()
        assert got[0] == F(3, 10) * x ** 2 and got[0]._den == 10

    def test_numerators_that_share_a_factor(self):
        """Hurwitz weights: component 2 is (x/2)(2z) + 2(y/4)y + z·x, with
        numerators 8 (xz) and 2 (y²) over the lcm 4, so 2xz + y²/2 over 2."""
        x, y, z = self.x, self.y, self.z
        a, b = (F(1, 2) * x, F(1, 4) * y, z), (x, y, 2 * z)
        got = self.check([(1, a, b)], ((1,), (1, 1), (1, 2, 1)))
        assert got[2] == 2 * x * z + F(1, 2) * y ** 2 and got[2]._den == 2
        assert list(got[2]._num.values()) == [4, 1]

    def test_both_in_one_call(self):
        """Power weights, one call: component 1 cancels, component 2 is
        xz - (2/15)x² + (2/5)xy, whose numerators 30, -4 and 12 over the
        lcm 30 share a 2, and component 0 needs neither; the pair is split
        into two weighted copies, so every key is hit twice."""
        x, y, z = self.x, self.y, self.z
        a, b = (F(1, 2) * x, F(1, 3) * x, F(2, 3) * y), (F(3, 5) * x, F(-2, 5) * x, 2 * z)
        got = self.check([(3, a, b), (-2, a, b)], (None,) * 3)
        assert got[0] == F(3, 10) * x ** 2 and got[0]._den == 10
        assert got[1]._num == {} and got[1]._den == 1
        assert got[2] == x * z - F(2, 15) * x ** 2 + F(2, 5) * x * y and got[2]._den == 15


_X, _Y = eta("x"), eta("y")
# (a, b, whether _convolution may take the packed Poly kernel)
DISPATCH = {
    "rational": ((F(1, 2), 3, F(-2, 3)), (2, F(1, 5), -1), False),
    "all_poly": ((_X, _X * _Y - 1, Poly.const(F(1, 2))), (_Y, Poly.const(3), _X ** 2), True),
    "poly_first": ((_X, F(1, 2), _X * _Y), (_Y, 3, F(-1, 3) * _X), False),
    "scalar_first": ((F(1, 2), _X, _Y), (3, _X * _Y, Poly.const(2)), False),
}


class TestConvolutionDispatch:
    """_convolution sends only all-Poly factors to the packed kernel. A
    series whose first numerator is an int or a Fraction (every rational
    series) skips the all-Poly check, and polynomials mixed with scalars,
    whichever comes first, are summed term by term; each product equals
    the textbook convolution."""

    @pytest.fixture
    def packed(self, monkeypatch) -> list:
        """The orders sum_convolution is called with, read where hurwitz
        imports it."""
        calls, original = [], polynomial.sum_convolution

        def spy(pairs, order, rows):
            calls.append(order)
            return original(pairs, order, rows)

        monkeypatch.setattr(polynomial, "sum_convolution", spy)
        return calls

    @pytest.mark.parametrize("flavor", list(Flavor))
    @pytest.mark.parametrize("case", sorted(DISPATCH))
    def test_only_all_poly_products_are_packed(self, packed, flavor, case):
        a, b, reaches = DISPATCH[case]
        f, g = Series(a, flavor), Series(b, flavor)
        assert smul(f, g).coeffs == plain_convolution(f, g)
        assert sum_smul([(2, f, g), (-1, g, f)]).coeffs == tuple(
            2 * c - d for c, d in zip(plain_convolution(f, g), plain_convolution(g, f)))
        assert packed == ([2, 2] if reaches else [])


class TestPascalRows:
    """The Hurwitz weights: Pascal's rows, kept for the process to order
    hurwitz._PASCAL_CAP and built in the call past it."""

    def test_rows_are_binomials(self):
        for count in range(hurwitz._PASCAL_CAP + 3):
            rows = list(hurwitz._rows(count))
            assert rows == [tuple(math.comb(n, k) for k in range(n + 1)) for n in range(count)]
            assert all(type(row) is tuple for row in rows)

    def test_products_past_the_cap_keep_the_table(self):
        table = hurwitz._PASCAL
        rng = SplitMix64(79)
        order = hurwitz._PASCAL_CAP + 10
        smul(random_series(rng, order, Flavor.HURWITZ), random_series(rng, order, Flavor.HURWITZ))
        env = {v: random_series(rng, 100, Flavor.HURWITZ) for v in "xy"}
        omega_eval(eta("x") * eta("y") + eta("x"), env, 100)
        assert hurwitz._PASCAL is table
        assert len(table) == hurwitz._PASCAL_CAP + 1


def folded(triples) -> Series:
    """The sum of w·f·g written as the law harness folds it: smul_trunc,
    scaling and + from the first weighted product."""
    products = [Fraction(w) * smul_trunc(f, g) for w, f, g in triples]
    total = products[0]
    for p in products[1:]:
        total = total + p
    return total


@st.composite
def weighted_triples(draw, kind: str = "mixed"):
    """1 to 4 (weight, f, g) triples of one flavor, each series of its own
    order, so the windows and the denominators differ from pair to pair."""
    flavor = draw(st.sampled_from(list(Flavor)))

    def one():
        order = draw(st.integers(0, 10))
        coeffs = st.lists(COEFFICIENTS[kind], min_size=order + 1, max_size=order + 1)
        return Series(tuple(draw(coeffs)), flavor)

    return [(draw(st.integers(-6, 6)), one(), one()) for _ in range(draw(st.integers(1, 4)))]


class TestSumSmul:
    """sum_smul builds a weighted sum of products in one pass; these pin it
    to the fold the law harness would run."""

    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    @given(data=st.data())
    def test_matches_the_fold(self, kind, data):
        triples = data.draw(weighted_triples(kind))
        got, want = sum_smul(triples), folded(triples)
        assert got == want and str(got) == str(want)
        assert got.order == min(min(f.order, g.order) for _, f, g in triples)
        assert canonical(got)

    def test_window_is_the_shortest_pair(self):
        f, g = series(1, 2, 3, 4), series(F(1, 3), F(-1, 2), 5)
        got = sum_smul([(2, f, f), (1, f, g)])
        assert got.order == 2
        assert got == 2 * smul(f, f).truncate(2) + smul_trunc(f, g)

    def test_cancellation_and_zero_weights(self):
        rng = SplitMix64(83)
        for flavor in Flavor:
            f, g = random_series(rng, 6, flavor), random_series(rng, 4, flavor)
            zero = Series((F(0),) * 5, flavor)
            assert sum_smul([(1, f, g), (-1, g, f)]) == zero
            assert sum_smul([(0, f, g), (0, f, f)]) == zero
            assert sum_smul([(3, f, g), (0, f, f)]) == 3 * smul_trunc(f, g)
            assert canonical(sum_smul([(1, f, g), (-1, g, f)]))

    def test_one_pair_is_smul(self):
        rng = SplitMix64(89)
        for flavor in Flavor:
            for order in (0, 1, 8, 32):
                f, g = random_series(rng, order, flavor), random_series(rng, order, flavor)
                assert sum_smul([(1, f, g)]) == smul(f, g)
                assert sum_smul([(-2, f, g)]) == -2 * smul(f, g)

    def test_one_reduction(self, monkeypatch):
        """However many pairs, the sum is reduced once."""
        rng = SplitMix64(97)
        triples = [(w, random_series(rng, 8, Flavor.HURWITZ), random_series(rng, 8 - w, Flavor.HURWITZ))
                   for w in range(1, 5)]
        want = folded(triples)
        calls = []
        original = Series._reduced.__func__

        def counting(cls, nums, den, flavor):
            calls.append(len(nums))
            return original(cls, nums, den, flavor)

        monkeypatch.setattr(Series, "_reduced", classmethod(counting))
        got = sum_smul(triples)
        monkeypatch.undo()
        assert calls == [5]
        assert got == want

    def test_mixed_flavors(self):
        h, p = series(1, 2), series(1, 2, flavor=Flavor.POWER)
        for triples in ([(1, h, h), (1, p, p)], [(1, h, p)], [(1, h, h), (1, h, p)]):
            with pytest.raises(FlavorMismatch, match="mixed flavors in a hurwitz sum"):
                sum_smul(triples)

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_polynomial_coefficients(self, flavor):
        """Coefficients that are not rational take the same loop over
        denominator 1: Poly coefficients give Poly components, and a mix
        of Poly and scalar coefficients gives the fold's values and types
        (a component that is a scalar stays one)."""
        rng = SplitMix64(101)
        x, y = dvar("x"), dvar("y")
        towers = [Series(tuple(random_diffpoly(rng, 3, max_degree=2) * random_fraction(rng)
                               for _ in range(order + 1)), flavor) for order in (4, 3, 4)]
        mixed = Series((1, x, F(1, 2), x * y - 3), flavor)
        for triples in ([(2, towers[0], towers[1]), (-1, towers[2], towers[0])],
                        [(1, mixed, towers[0]), (3, towers[1], mixed)]):
            got = sum_smul(triples)
            assert got.coeffs == folded(triples).coeffs
            assert all(type(c) is Poly for c in got.coeffs)
        triples = [(2, mixed, Series((3, 0, y, 0), flavor))]
        got, want = sum_smul(triples), folded(triples)
        assert got.coeffs == want.coeffs
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs] == [int] + [Poly] * 3

    def test_smul_strictness_and_values_unchanged(self):
        f = series(F(1, 2), 2, 3)
        with pytest.raises(OrderMismatch, match="order 2 \\* order 1"):
            smul(f, series(1, 2))
        with pytest.raises(FlavorMismatch, match="hurwitz \\* power"):
            smul(f, series(1, 2, 3, flavor=Flavor.POWER))
        assert smul(f, f).coeffs == (F(1, 4), F(2), F(11))
        assert smul(series(F(1, 2), 2, 3, flavor=Flavor.POWER),
                    series(F(1, 2), 2, 3, flavor=Flavor.POWER)).coeffs == (F(1, 4), F(2), F(7))


def canonical(s: Series) -> bool:
    """The rational store: int numerators over a positive int, gcd 1."""
    num, den = s._num, s._den
    return (type(den) is int and den > 0 and all(type(n) is int for n in num)
            and math.gcd(den, *num) == 1 and s._coeffs is not num)


class TestStore:
    """Rational series are int numerators over one denominator; every
    operation leaves that store canonical and the public face unchanged."""

    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    @given(data=st.data())
    def test_operations(self, kind, data):
        f, g = data.draw(series_pairs(kind))
        c, k, flavor = data.draw(COEFFICIENTS[kind]), data.draw(st.integers(0, f.order)), f.flavor
        a, b = [F(x) for x in f.coeffs], [F(x) for x in g.coeffs]  # the coefficients as drawn
        weight = (lambda n, j: math.comb(n, j)) if flavor is Flavor.HURWITZ else (lambda n, j: 1)
        cases = {
            "+": (f + g, [x + y for x, y in zip(a, b)]),
            "c*": (c * f, [c * x for x in a]),
            "*c": (f * c, [x * c for x in a]),
            "smul": (smul(f, g), [sum(weight(n, j) * a[j] * b[n - j] for j in range(n + 1))
                                  for n in range(len(a))]),
            "truncate": (f.truncate(k), a[: k + 1]),
            "sunit": (sunit(k, flavor), [F(1)] + [F(0)] * k),
        }
        if len(a) > 1:
            cases["sderive"] = (sderive(f), [x if flavor is Flavor.HURWITZ else n * x
                                             for n, x in enumerate(a) if n])
        if flavor is Flavor.POWER:
            cases["psi"] = (psi(f), [math.factorial(n) * x for n, x in enumerate(a)])
        else:
            cases["psi_inv"] = (psi_inv(f), [x / math.factorial(n) for n, x in enumerate(a)])
        for name, (got, want) in cases.items():
            assert canonical(got), name
            assert got.coeffs == tuple(want), name
            if got is not f:  # truncate to the full order returns f as built
                assert all(type(x) is Fraction for x in got.coeffs), name
            twin = Series(want, got.flavor)
            assert twin == got and hash(twin) == hash(got), name
            assert (twin._num, twin._den) == (got._num, got._den), name

    def test_reduced_int_numerators_share_one_gcd(self):
        got = Series._reduced([2, -4, 6], 4, Flavor.POWER)
        assert (got._num, got._den, got._coeffs) == ((1, -2, 3), 2, None)
        assert got.coeffs == (F(1, 2), F(-1), F(3, 2))
        assert all(type(c) is Fraction for c in got.coeffs)

    @pytest.mark.parametrize("nums, den, want", [
        ((eta("x"), 2 * eta("x"), eta("y")), 3,
         (F(1, 3) * eta("x"), F(2, 3) * eta("x"), F(1, 3) * eta("y"))),
        ((3, eta("x")), 2, (F(3, 2), F(1, 2) * eta("x"))),
        ((eta("x"), 3), 2, (F(1, 2) * eta("x"), F(3, 2))),
        ((F(1, 2), 3, F(-4, 3)), 6, (F(1, 12), F(1, 2), F(-2, 9))),
        ((F(1, 2), 3), 1, (F(1, 2), 3)),
        ((1, eta("x"), F(1, 2)), 2, (F(1, 2), F(1, 2) * eta("x"), F(1, 4))),
    ])
    def test_reduced_sends_other_numerators_to_the_constructor(self, nums, den, want):
        """A Poly or a Fraction among the numerators, wherever it stands,
        makes the result the public constructor's: its coeffs, with their
        types, and its store."""
        for flavor in Flavor:
            got, twin = Series._reduced(list(nums), den, flavor), Series(want, flavor)
            assert got.coeffs == want
            assert [type(c) for c in got.coeffs] == [type(c) for c in want]
            assert (got._num, got._den) == (twin._num, twin._den)

    def test_int_and_fraction_coefficients_agree(self):
        for flavor in Flavor:
            ints, fracs = Series((1, 2), flavor), Series((F(1), F(2)), flavor)
            assert ints == fracs and hash(ints) == hash(fracs) and str(ints) == str(fracs)
            assert (ints._num, ints._den) == (fracs._num, fracs._den) == ((1, 2), 1)
            assert ints.coeffs == (1, 2) and type(ints.coeffs[0]) is int  # kept as given
            assert all(type(x) is Fraction for x in (ints + ints).coeffs)

    def test_constant_polynomial_coefficients_hash_as_rationals(self):
        """A series of constant polynomials equals the rational series and
        hashes alike, so a set holds one of the two."""
        for flavor in Flavor:
            a, b = Series((Poly.const(3),), flavor), Series((3,), flavor)
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            c = Series((Poly.const(F(1, 2)), Poly.zero()), flavor)
            d = Series((F(1, 2), 0), flavor)
            assert c == d and hash(c) == hash(d) and len({c, d}) == 1

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False, 1j, "ab", Decimal("0.1"), Int64()],
                             ids=["float", "integral_float", "true", "false", "complex", "str",
                                  "decimal", "int64"])
    def test_inexact_coefficients_and_scalars_refused(self, bad):
        """A float, complex, Decimal, fixed-width integer, bool or str is
        neither an exact rational nor a ring element: as a coefficient or a
        scalar it raises TypeError."""
        s = Series((1, 2, 3), Flavor.HURWITZ)
        with pytest.raises(TypeError):
            Series((F(1, 2), bad), Flavor.HURWITZ)
        with pytest.raises(TypeError):
            s * bad
        with pytest.raises(TypeError):
            bad * s

    @pytest.mark.parametrize("bad", ["hurwitz", "power", None, 0],
                             ids=["hurwitz-str", "power-str", "none", "int"])
    def test_flavor_must_be_a_flavor(self, bad):
        """A flavor's value or name is neither algebra: the constructor and
        sunit refuse it, rather than build a series whose product is the
        Cauchy product and whose repr fails."""
        with pytest.raises(TypeError, match="expected a Flavor, got"):
            Series((1, 2, 3), bad)
        with pytest.raises(TypeError, match="expected a Flavor, got"):
            sunit(2, bad)

    def test_exact_scalars_and_polynomials_kept(self):
        s, x = Series((1, 2, 3), Flavor.HURWITZ), eta("x")
        assert (s * 2).coeffs == (2, 4, 6) and (2 * s).coeffs == (2, 4, 6)
        assert (s * F(1, 2)).coeffs == (F(1, 2), 1, F(3, 2))
        assert (x * s).coeffs == (s * x).coeffs == (x, 2 * x, 3 * x)
        assert Series((x, F(1, 2), 3), Flavor.POWER).order == 2

    def test_immutable(self):
        s = Series((1, F(1, 2)), Flavor.HURWITZ)
        for name in ("coeffs", "flavor", "_num", "_den", "order", "extra"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
        with pytest.raises(AttributeError):
            del s.flavor
        assert pickle.loads(pickle.dumps(s)) == s and copy.deepcopy(s) == s

    def test_polynomial_coefficients(self):
        """Polynomials are their own numerators over 1; a result whose
        coefficients are all rational again gets the rational store."""
        x = eta("x")
        for flavor in Flavor:
            p = Series((x, F(1, 2), x * x - 3), flavor)
            q = Series((F(1, 3), F(2), F(-5, 6)), flavor)
            assert p._den == 1 and p._coeffs is p._num
            assert (p + q).coeffs == tuple(u + v for u, v in zip(p.coeffs, q.coeffs))
            assert (x * q).coeffs == tuple(x * v for v in q.coeffs)
            assert smul(p, q).coeffs == plain_convolution(p, q)
            doubled = p.truncate(1) * 2
            assert doubled._den == 1 and doubled.coeffs == (2 * x, F(1))
            head = Series((F(1, 2), x), flavor).truncate(0)
            assert canonical(head) and head == Series((F(1, 2),), flavor)
            poly = eta("X") * eta("Y") ** 2 + 3
            env = {"X": p, "Y": q}
            assert _components(poly, env, 2, flavor) == list(ring_eval(poly, env).coeffs)


class TestRecursionKernel:
    """omega_eval/delta_eval build one series per iterated partial on the
    integer store of the series; every component must still be the ring's."""

    @staticmethod
    def three_variable_poly(rng):
        p = Poly.zero()
        for _ in range(rng.randint(2, 5)):
            exps = {}
            for _ in range(rng.randint(0, 4)):
                v = rng.choice(("X", "Y", "Z"))
                exps[v] = exps.get(v, 0) + 1
            p = p + Poly.monomial(exps, F(rng.randint(-9, 9), rng.randint(1, 6)))
        return p

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_every_component_to_16(self, flavor):
        evaluator = omega_eval if flavor is Flavor.HURWITZ else delta_eval
        rng = SplitMix64(67)
        big = (999983, 999979, 1000003)
        for trial in range(6):
            p = self.three_variable_poly(rng)
            env = {v: random_series(rng, 16, flavor) for v in ("X", "Y", "Z")}
            if trial % 2:  # large coprime denominators
                env = {v: Series(tuple(c / big[i] for c in s.coeffs), flavor)
                       for i, (v, s) in enumerate(env.items())}
            oracle = ring_eval(p, env).coeffs
            for n in range(17):
                got = evaluator(p, env, n)
                assert got == oracle[n]
                assert type(got) is Fraction
            assert _components(p, env, 16, flavor) == list(oracle)

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_polynomial_coefficients(self, flavor):
        """Series over polynomials take the same recursion, with d = 1 and
        component 0 over the stored denominator of p."""
        evaluator = omega_eval if flavor is Flavor.HURWITZ else delta_eval
        t = eta("t")
        env = {"X": Series((t, F(1, 2) * t * t + 1, F(3), t - 2, F(1, 3)), flavor),
               "Y": Series((F(2), t, F(-1, 5), t * t, F(7)), flavor)}
        p = 3 * eta("X") ** 2 * eta("Y") - F(1, 2) * eta("X") * eta("Y") + 4
        oracle = ring_eval(p, env).coeffs
        assert [evaluator(p, env, n) for n in range(5)] == list(oracle)
        assert _components(p, env, 4, flavor) == list(oracle)

    def test_constant_and_zero(self):
        for flavor in Flavor:
            env = {"X": random_series(SplitMix64(71), 3, flavor)}
            assert _components(Poly.const(F(5, 3)), env, 3, flavor) == [F(5, 3), 0, 0, 0]
            assert _components(Poly.zero(), env, 3, flavor) == [0, 0, 0, 0]

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_one_component_equals_the_components(self, flavor):
        """omega_eval and delta_eval read the one component asked for: it
        equals that entry of _components, a Fraction over the rationals, and
        the same value and type over polynomials and a mixed environment."""
        evaluator = omega_eval if flavor is Flavor.HURWITZ else delta_eval
        rng = SplitMix64(97)
        t = eta("t")
        p = self.three_variable_poly(rng) * self.three_variable_poly(rng)
        rational = {v: random_series(rng, 6, flavor) for v in ("X", "Y", "Z")}
        polys = {"X": Series((t, F(1, 2) * t * t + 1, F(3), t - 2, F(1, 3), t, F(2)), flavor),
                 "Y": Series((F(2), t, F(-1, 5), t * t, F(7), F(1, 4), 1 - t), flavor),
                 "Z": Series((t + 1, 0, t, F(2, 3), t * t, 3, t), flavor)}
        mixed = dict(rational, Y=polys["Y"])
        for env in (rational, polys, mixed):
            for n in range(7):
                got, want = evaluator(p, env, n), _components(p, env, 6, flavor)[n]
                assert got == want == _components(p, env, n, flavor)[n]
                assert type(got) is type(want)
                if env is rational:
                    assert type(got) is Fraction

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_partial_reached_at_two_depths(self, flavor):
        """dp/dX and d2p/dY2 coincide (1, then Z) under two multi-indices of
        different sizes, one order apart: each is kept to its own order, and
        every component is still the ring's."""
        X, Y, Z = eta("X"), eta("Y"), eta("Z")
        rng = SplitMix64(83)
        for p in (X + F(1, 2) * Y ** 2, X * Z + F(1, 2) * Y ** 2 * Z):
            for n in range(9):
                env = {v: random_series(rng, n + 2, flavor) for v in ("X", "Y", "Z")}
                oracle = ring_eval(p, {v: s.truncate(n) for v, s in env.items()})
                assert _components(p, env, n, flavor) == list(oracle.coeffs)

    def test_power_at_the_eval_bound_in_little_memory(self):
        """X*Y at order 1000, the largest eval request of two variables that
        the CLI admits, holds a few series at a time: its allocation peak
        stays far below what a carried factorial weight per component
        would need (about 220 MB)."""
        rng = SplitMix64(79)
        env = {v: random_series(rng, 1000, Flavor.POWER) for v in ("X", "Y")}
        p = eta("X") * eta("Y")
        tracemalloc.start()
        try:
            got = _components(p, env, 1000, Flavor.POWER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == list(ring_eval(p, env).coeffs)
        assert peak < 16 * 2 ** 20, peak

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_memo_is_freed_without_the_cyclic_collector(self, flavor):
        """The recursion's memo is freed by reference counting as soon as
        the call returns: it leaves nothing for gc.collect() to find."""
        rng = SplitMix64(73)
        p = self.three_variable_poly(rng) * self.three_variable_poly(rng)
        env = {v: random_series(rng, 8, flavor) for v in ("X", "Y", "Z")}
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            _components(p, env, 8, flavor)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestUnitAndDerive:
    def test_sunit(self):
        assert sunit(0, Flavor.HURWITZ).coeffs == (F(1),)
        assert sunit(3, Flavor.POWER).coeffs == (F(1), F(0), F(0), F(0))
        assert sderive(sunit(3, Flavor.HURWITZ)) == series(0, 0, 0)
        assert sderive(sunit(3, Flavor.POWER)) == series(0, 0, 0, flavor=Flavor.POWER)

    def test_shift(self):
        assert sderive(series(5, 7, 11, 13)) == series(7, 11, 13)

    def test_scaled_shift(self):
        got = sderive(Series((F(9), F(1), F(2), F(3)), Flavor.POWER))
        assert got == Series((F(1), F(4), F(9)), Flavor.POWER)

    def test_order_exhausted(self):
        with pytest.raises(OrderExhausted):
            sderive(series(1))


class TestTypedErrors:
    """Each refusal of bad arguments raises its typed error."""

    H = series(1, 2, 3)
    P = series(1, 2, 3, flavor=Flavor.POWER)
    X = eta("X")

    @pytest.mark.parametrize("call, args, error, message", [
        (ring_eval, (X, {}), ValueError, "at least one series"),
        (ring_eval, (X, {"X": H, "Y": P}), FlavorMismatch, "mixes series flavors"),
        (ring_eval, (X, {"X": H, "Y": series(1, 2)}), OrderMismatch, "mixes series orders"),
        (ring_eval, (eta("Y"), {"X": H}), UnboundVariable, "'Y'"),
        (operator.add, (H, P), FlavorMismatch, "hurwitz \\+ power"),
        (Series.truncate, (H, -1), ValueError, "non-negative"),
        (sunit, (-1, Flavor.POWER), ValueError, "non-negative"),
        (comul, (H, -1), ValueError, "non-negative"),
        (omega_eval, (X, {"X": H}, -1), ValueError, "non-negative"),
        (operator.getitem, (H, 3), IndexError, "out of range"),
    ], ids=["ring-eval-empty", "ring-eval-flavors", "ring-eval-orders", "ring-eval-unbound",
            "add-flavors", "truncate", "sunit", "comul", "omega-eval", "getitem"])
    def test_raises(self, call, args, error, message):
        with pytest.raises(error, match=message):
            call(*args)

    def test_operators_leave_other_types_to_python(self):
        """==, + and a right scalar product return NotImplemented on an
        operand they do not handle, so Python decides: unequal, or a
        TypeError."""
        H = self.H
        assert H.__eq__(1) is NotImplemented and H != 1 and H != (1, 2, 3)
        assert H.__add__(1) is NotImplemented and H.__rmul__(H) is NotImplemented
        with pytest.raises(TypeError):
            H + 1

    def test_repr(self):
        assert repr(series(1, F(1, 2))) == "Series([1,1/2], hurwitz)"
        assert repr(series(0, flavor=Flavor.POWER)) == "Series([0], power)"


class TestOmegaEval:
    def test_product_component_one(self):
        env = {"X": series(1, 2, 3), "Y": series(5, 7, 11)}
        # by hand: x0*y1 + x1*y0 = 1*7 + 2*5 = 17
        assert omega_eval(eta("X") * eta("Y"), env, 1) == 17

    def test_constant(self):
        env = {"X": series(1, 2, 3)}
        assert omega_eval(Poly.const(F(3, 2)), env, 0) == F(3, 2)
        for n in (1, 2):
            assert omega_eval(Poly.const(F(3, 2)), env, n) == 0

    def test_generator(self):
        env = {"X": series(4, 9, 16, 25)}
        for n in range(4):
            assert omega_eval(eta("X"), env, n) == env["X"].coeffs[n]

    def test_oracle_against_ring(self):
        rng = SplitMix64(13)
        for _ in range(25):
            p = Poly.zero()
            for _ in range(rng.randint(1, 3)):
                exps = {}
                for _ in range(rng.randint(0, 3)):
                    v = rng.choice(("X", "Y", "Z"))
                    exps[v] = exps.get(v, 0) + 1
                p = p + Poly.monomial(exps, F(rng.randint(-9, 9), rng.randint(1, 4)))
            env = {v: random_series(rng, 8, Flavor.HURWITZ) for v in ("X", "Y", "Z")}
            oracle = ring_eval(p, env)
            for n in range(7):
                assert omega_eval(p, env, n) == oracle.coeffs[n]

    def test_errors(self):
        env = {"X": series(1, 2)}
        with pytest.raises(UnboundVariable):
            omega_eval(eta("Y"), env, 0)
        with pytest.raises(OrderExhausted):
            omega_eval(eta("X"), env, 5)
        with pytest.raises(FlavorMismatch):
            omega_eval(eta("X"), {"X": series(1, 2, flavor=Flavor.POWER)}, 0)


class TestDeltaEval:
    def test_product_component_one(self):
        env = {"X": series(1, 2, 3, flavor=Flavor.POWER),
               "Y": series(5, 7, 11, flavor=Flavor.POWER)}
        assert delta_eval(eta("X") * eta("Y"), env, 1) == 17

    def test_cauchy_square_of_ones(self):
        env = {"X": series(1, 1, 1, flavor=Flavor.POWER)}
        assert delta_eval(eta("X") ** 2, env, 2) == 3

    def test_unit(self):
        env = {"X": series(1, 1, flavor=Flavor.POWER)}
        assert delta_eval(Poly.one(), env, 0) == 1

    def test_oracle_against_ring(self):
        rng = SplitMix64(19)
        for _ in range(25):
            p = Poly.zero()
            for _ in range(rng.randint(1, 3)):
                exps = {}
                for _ in range(rng.randint(0, 3)):
                    v = rng.choice(("X", "Y"))
                    exps[v] = exps.get(v, 0) + 1
                p = p + Poly.monomial(exps, F(rng.randint(-9, 9), rng.randint(1, 4)))
            env = {v: random_series(rng, 8, Flavor.POWER) for v in ("X", "Y")}
            oracle = ring_eval(p, env)
            for n in range(7):
                assert delta_eval(p, env, n) == oracle.coeffs[n]

    def test_relation_to_omega_by_rescaling(self):
        # delta_n(p at f) = (1/n!) omega_n(p at psi(f)): the two recursions
        # are conjugate under the factorial isomorphism
        from diffalg.scalars import factorial

        rng = SplitMix64(23)
        for _ in range(10):
            p = eta("X") ** 2 * eta("Y") + 2 * eta("Y")
            env = {v: random_series(rng, 6, Flavor.POWER) for v in ("X", "Y")}
            env_h = {v: psi(s) for v, s in env.items()}
            for n in range(5):
                assert delta_eval(p, env, n) == omega_eval(p, env_h, n) / factorial(n)


class TestChainRuleOnSeries:
    def test_hurwitz_shift_chain_rule(self):
        rng = SplitMix64(29)
        for _ in range(20):
            p = eta("X") ** 2 * eta("Y") - 3 * eta("X")
            env = {v: random_series(rng, 6, Flavor.HURWITZ) for v in ("X", "Y")}
            lhs = sderive(ring_eval(p, env))
            rhs = None
            for v in ("X", "Y"):
                term = smul_trunc(ring_eval(partial(p, v), env), sderive(env[v]))
                rhs = term if rhs is None else rhs + term
            assert lhs.window_eq(rhs)

    def test_power_scaled_shift_chain_rule(self):
        rng = SplitMix64(31)
        for _ in range(20):
            p = eta("X") * eta("Y") + eta("Y") ** 3
            env = {v: random_series(rng, 6, Flavor.POWER) for v in ("X", "Y")}
            lhs = sderive(ring_eval(p, env))
            rhs = None
            for v in ("X", "Y"):
                term = smul_trunc(ring_eval(partial(p, v), env), sderive(env[v]))
                rhs = term if rhs is None else rhs + term
            assert lhs.window_eq(rhs)


class TestDiamond:
    def test_generator_tower(self):
        got = diamond(d_shift, dvar("x"), 2)
        assert got.coeffs == (dvar("x"), dvar("x", 1), dvar("x", 2))
        assert got.flavor is Flavor.HURWITZ

    def test_zero_derivation(self):
        zero = lambda p: Poly.zero()  # noqa: E731
        assert diamond(zero, dvar("x"), 3).coeffs == (dvar("x"), 0, 0, 0)

    def test_multiplicative(self):
        # diamond converts ring products to Hurwitz products
        rng = SplitMix64(37)
        for _ in range(15):
            a, b = random_diffpoly(rng, 2, max_degree=2), random_diffpoly(rng, 2, max_degree=2)
            lhs = diamond(d_shift, a * b, 4)
            rhs = smul(diamond(d_shift, a, 4), diamond(d_shift, b, 4))
            assert lhs == rhs

    def test_intertwines(self):
        a = dvar("x") ** 2
        assert sderive(diamond(d_shift, a, 4)) == diamond(d_shift, d_shift(a), 3)


class TestComul:
    def test_shift_windows_by_hand(self):
        f = series(10, 11, 12)
        grid = comul(f, 1)
        assert grid.grid == ((F(10), F(11)), (F(11), F(12)))

    def test_row_zero_recovers(self):
        f = series(1, 2, 3, 4, 5)
        assert comul(f, 2).row_series(0) == f.truncate(2)

    def test_unit_grid(self):
        grid = comul(sunit(3, Flavor.HURWITZ), 1)
        assert grid.grid == ((F(1), F(0), F(0)), (F(0), F(0), F(0)))

    def test_triangle_validity(self):
        with pytest.raises(OrderExhausted):
            comul(series(1, 2), 5)
        with pytest.raises(FlavorMismatch):
            comul(series(1, 2, flavor=Flavor.POWER), 1)

    def test_comonad_suite(self):
        for report in check_comonad_laws(25, 41):
            assert report.passed, report.to_json()

    def test_counit_catches_a_shifted_row_zero(self, monkeypatch):
        """A comul whose row 0 is rotated by one fails the row-0 clause of
        the counit law, whose right-hand side is f itself."""
        real = hurwitz.comul

        def shifted(f, rows):
            grid = real(f, rows).grid
            return SeriesOfSeries((grid[0][1:] + grid[0][:1],) + grid[1:])

        monkeypatch.setattr(hurwitz, "comul", shifted)
        report = check_comonad_laws(25, 41)[0]
        assert report.law == "comonad_counit" and not report.passed
        cx = report.counterexample
        assert list(cx) == ["f", "rows", "lhs", "rhs"]
        assert cx["rhs"] == cx["f"] != cx["lhs"]

    def test_grid_shape(self):
        with pytest.raises(ValueError):
            SeriesOfSeries(((F(1), F(2)), (F(1),)))


class TestSeriesOfSeries:
    """The grid's value semantics, pinned apart from how the class is
    written: normalised to tuples, compared and hashed by grid, immutable."""

    def test_grid_normalised_to_tuples(self):
        s = SeriesOfSeries([[F(1), F(2)], (F(3), F(4))])
        assert s.grid == ((F(1), F(2)), (F(3), F(4)))
        assert type(s.grid) is tuple and all(type(r) is tuple for r in s.grid)
        assert s.column(1) == (F(2), F(4))
        assert s.row_series(1) == series(3, 4)

    def test_equality_and_hash(self):
        a = SeriesOfSeries([[1, 2], [3, 4]])
        b = SeriesOfSeries(((1, 2), (3, 4)))
        c = SeriesOfSeries(((1, 2), (3, 5)))
        assert a == b and hash(a) == hash(b)
        assert a != c and a != a.grid
        assert len({a, b, c}) == 2
        assert repr(a) == "SeriesOfSeries(grid=((1, 2), (3, 4)))"

    def test_immutable(self):
        s = SeriesOfSeries(((1,),))
        with pytest.raises(AttributeError):
            s.grid = ((2,),)
        with pytest.raises(AttributeError):
            del s.grid
        with pytest.raises(AttributeError):
            s.other = 1
        assert s.grid == ((1,),)

    def test_copies_are_equal(self):
        s = comul(series(1, 2, 3, 4), 2)
        assert pickle.loads(pickle.dumps(s)) == s
        assert copy.copy(s) == s == copy.deepcopy(s)

    @pytest.mark.parametrize("grid", [(), [(1, 2), (3,)], [(1,), (2, 3)]])
    def test_ragged_or_empty_grid(self, grid):
        with pytest.raises(ValueError, match="grid must be non-empty and rectangular"):
            SeriesOfSeries(grid)


class TestPsi:
    def test_factorial_rescaling(self):
        f = series(1, 1, 1, 1, 1, flavor=Flavor.POWER)
        assert psi(f) == series(1, 1, 2, 6, 24)
        assert psi(sunit(4, Flavor.POWER)) == sunit(4, Flavor.HURWITZ)
        assert psi_inv(series(1, 1, 2, 6, 24)) == f

    def test_round_trip(self):
        rng = SplitMix64(43)
        for _ in range(20):
            f = random_series(rng, 8, Flavor.POWER)
            assert psi_inv(psi(f)) == f

    def test_flavor_guards(self):
        with pytest.raises(FlavorMismatch):
            psi(series(1, 2))
        with pytest.raises(FlavorMismatch):
            psi_inv(series(1, 2, flavor=Flavor.POWER))

    def test_suite(self):
        for report in check_psi_laws(40, 47):
            assert report.passed, report.to_json()

    @pytest.mark.parametrize("order", [0, hurwitz._PASCAL_CAP, hurwitz._PASCAL_CAP + 1, 1000])
    def test_kept_factorial_row_and_past_it(self, order):
        """psi and psi_inv at the last kept factorial and past it, where the
        row is built in the call, against math.factorial per component."""
        rng = SplitMix64(89)
        f, h = random_series(rng, order, Flavor.POWER), random_series(rng, order, Flavor.HURWITZ)
        table = hurwitz._FACTORIALS
        assert psi(f).coeffs == tuple(math.factorial(n) * c for n, c in enumerate(f.coeffs))
        assert psi_inv(h).coeffs == tuple(c / math.factorial(n) for n, c in enumerate(h.coeffs))
        assert psi_inv(psi(f)) == f and psi(psi_inv(h)) == h
        assert hurwitz._FACTORIALS is table
        assert len(table) == hurwitz._PASCAL_CAP + 1

    def test_factorial_rows(self):
        for count in range(hurwitz._PASCAL_CAP + 3):
            facts = hurwitz._factorials(count)
            assert facts == tuple(math.factorial(n) for n in range(count))
            assert type(facts) is tuple

    def test_round_trip_catches_a_faulty_psi_inv(self, monkeypatch):
        """A psi_inv off in its last coefficient fails the round trip at
        the first trial."""
        real = hurwitz.psi_inv

        def off_by_one(f):
            back = real(f)
            return Series(back.coeffs[:-1] + (back.coeffs[-1] + 1,), back.flavor)

        monkeypatch.setattr(hurwitz, "psi_inv", off_by_one)
        report = check_psi_laws(40, 47)[0]
        assert report.law == "psi_round_trip" and not report.passed and report.trials == 1
        cx = report.counterexample
        assert list(cx) == ["f", "g", "lhs", "rhs"]
        assert cx["rhs"] == cx["f"] != cx["lhs"]


class TestColift:
    def test_kill_positive_orders(self):
        from diffalg.free_diff import DVar

        images = {DVar("x", k): F(0) for k in range(5)}
        got = colift(images, diffpoly_carrier(), dvar("x"), 3)
        assert got.coeffs == (0, 0, 0, 0)

    def test_identity_recovers_diamond(self):
        p = dvar("x") * dvar("y", 1)
        assert colift({}, diffpoly_carrier(), p, 3) == diamond(d_shift, p, 3)

    def test_counit(self):
        from diffalg.free_diff import DVar

        images = {DVar("x", 0): F(2), DVar("x", 1): F(5)}
        p = dvar("x") ** 2
        got = colift(images, diffpoly_carrier(), p, 2)
        assert got.coeffs[0] == 4  # f(p) with x -> 2


class TestEvalPointwiseSuite:
    def test_clauses(self):
        for report in check_eval_pointwise(25, 53):
            assert report.passed, report.to_json()
