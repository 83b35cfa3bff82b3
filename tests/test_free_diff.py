import copy
import pickle
from fractions import Fraction

import pytest

from diffalg.carriers import hurwitz_carrier, random_diffpoly
from diffalg.errors import MalformedNesting, UnboundVariable
from diffalg.free_diff import (
    DVar,
    alpha,
    beta,
    d_shift,
    d_shift_via_sharp,
    decode_nested,
    dvar,
    encode_nested,
    extend,
    natural_map,
    nest,
)
from diffalg.hurwitz import Flavor, Series, sderive
from diffalg.polynomial import Poly, eta, mono_degree, rename_vars
from diffalg.rng import SplitMix64
from diffalg.suites import check_monad_laws, check_shift_oracle

x0, x1, y0, y1 = dvar("x", 0), dvar("x", 1), dvar("y", 0), dvar("y", 1)


class TestDVar:
    def test_prime_notation(self):
        assert str(DVar("x", 0)) == "x"
        assert str(DVar("x", 1)) == "x'"
        assert str(DVar("x", 2)) == "x''"
        assert str(DVar("x", 3)) == "x'''"
        assert str(DVar("x", 4)) == "x^(4)"

    def test_order_zero_is_plain_generator(self):
        assert dvar("x") == dvar("x", 0)
        with pytest.raises(ValueError):
            dvar("x", -1)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "2", None],
                             ids=["float", "integral-float", "bool", "str", "none"])
    def test_order_must_be_an_int(self, bad):
        """A derivative order that is not an int is refused at once, not
        left to fail in str() or in the order check, also by the variable
        itself."""
        with pytest.raises(TypeError, match="derivative order must be an int"):
            dvar("x", bad)
        with pytest.raises(TypeError, match="derivative order must be an int"):
            DVar("x", bad)
        with pytest.raises(TypeError, match="derivative order must be an int"):
            DVar("x", 1)._replace(order=bad)

    @pytest.mark.parametrize("bad", [3, None, b"x", ("x",)], ids=["int", "none", "bytes", "tuple"])
    def test_variable_refuses_a_base_that_is_not_a_str(self, bad):
        with pytest.raises(TypeError, match="base name must be a str"):
            DVar(bad, 1)
        with pytest.raises(TypeError, match="base name must be a str"):
            dvar(bad)

    def test_variable_refuses_a_negative_order(self):
        """Refused when made: a shift of (x, -2) would otherwise print x."""
        with pytest.raises(ValueError, match="non-negative, got -2"):
            DVar("x", -2)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            DVar("x", 0)._replace(order=-1)

    def test_variable_is_the_plain_pair(self):
        v = DVar(base="x", order=2)
        assert v == ("x", 2) and v._replace(order=3) == DVar("x", 3)
        assert repr(v) == "DVar(base='x', order=2)"
        assert pickle.loads(pickle.dumps(v)) == v


class TestShift:
    def test_single_bump(self):
        assert d_shift(x0 * y1) == x1 * y1 + x0 * dvar("y", 2)

    def test_constant_rule(self):
        assert d_shift(Poly.const(5)) == 0

    def test_bump_merges_into_next_factor(self):
        # x*x': bumping x lands on the x' already there
        got = d_shift(x0 * x1)
        assert got == x1 ** 2 + x0 * dvar("x", 2)
        assert dict(got.terms()) == {((DVar("x", 1), 2),): 1,
                                     ((DVar("x", 0), 1), (DVar("x", 2), 1)): 1}
        # the lowered factor stays in front of the merged one
        assert d_shift(x0 ** 2 * x1) == 2 * x0 * x1 ** 2 + x0 ** 2 * dvar("x", 2)

    def test_exponent_above_one(self):
        got = d_shift(x0 ** 3 * y0)
        assert got == 3 * x0 ** 2 * x1 * y0 + x0 ** 3 * y1
        assert dict(got.terms()) == {
            ((DVar("x", 0), 2), (DVar("x", 1), 1), (DVar("y", 0), 1)): 3,
            ((DVar("x", 0), 3), (DVar("y", 1), 1)): 1}

    def test_last_position(self):
        y2 = dvar("y", 2)
        got = d_shift(x0 * y2 ** 2)
        assert got == x1 * y2 ** 2 + 2 * x0 * y2 * dvar("y", 3)
        assert dict(got.terms()) == {
            ((DVar("x", 1), 1), (DVar("y", 2), 2)): 1,
            ((DVar("x", 0), 1), (DVar("y", 2), 1), (DVar("y", 3), 1)): 2}

    def test_third_iterate_of_square(self):
        # D^3(x^2) expanded by hand: 6 x' x'' + 2 x x'''
        p = x0 ** 2
        for _ in range(3):
            p = d_shift(p)
        assert p == 6 * x1 * dvar("x", 2) + 2 * x0 * dvar("x", 3)

    def test_leibniz(self):
        rng = SplitMix64(41)
        for _ in range(40):
            p, q = random_diffpoly(rng, 3), random_diffpoly(rng, 3)
            assert d_shift(p * q) == p * d_shift(q) + d_shift(p) * q

    def test_bumped_variables_are_checked_dvars(self):
        """The bumped (x, n+1) skips DVar's checks but is a DVar like any
        other: equal and hash-equal to the checked one, it pickles and
        copies, and a _replace of it is checked again."""
        p = x0 ** 2 * y1 + dvar("y", 3) * dvar("z", 7)
        bumped = {v for m, _ in d_shift(p).terms() for v, _ in m} - set(p.variables())
        assert bumped == {DVar("x", 1), DVar("y", 2), DVar("y", 4), DVar("z", 8)}
        for v in bumped:
            assert type(v) is DVar
            assert v == DVar(v.base, v.order) and hash(v) == hash(DVar(v.base, v.order))
            with pytest.raises(ValueError, match="non-negative, got -1"):
                v._replace(order=-1)
        shifted = d_shift(p)
        for twin in (pickle.loads(pickle.dumps(shifted)), copy.copy(shifted),
                     copy.deepcopy(shifted)):
            assert twin == shifted and hash(twin) == hash(shifted)
            assert list(twin.terms()) == list(shifted.terms())
            assert all(type(v) is DVar for m, _ in twin.terms() for v, _ in m)

    def test_grading(self):
        # on a monomial: total degree is preserved, derivative weight
        # (sum of order * exponent) goes up by exactly 1 in every term
        rng = SplitMix64(43)
        for _ in range(40):
            exps = {}
            for _ in range(rng.randint(1, 4)):
                v = DVar(rng.choice(("x", "y")), rng.randint(0, 2))
                exps[v] = exps.get(v, 0) + 1
            m = Poly.monomial(exps)
            weight = sum(v.order * e for v, e in next(m.terms())[0])
            degree = m.total_degree()
            shifted = d_shift(m)
            for mono, _ in shifted.terms():
                assert mono_degree(mono) == degree
                assert sum(v.order * e for v, e in mono) == weight + 1


class TestShiftViaSharp:
    def test_examples(self):
        assert d_shift_via_sharp(x0 * y1) == d_shift(x0 * y1)
        assert d_shift_via_sharp(Poly.one()) == 0
        assert d_shift_via_sharp(x0 ** 3) == 3 * x0 ** 2 * x1

    def test_oracle_equivalence(self):
        rng = SplitMix64(47)
        for _ in range(100):
            p = random_diffpoly(rng)
            assert d_shift(p) == d_shift_via_sharp(p)

    def test_suite(self):
        assert check_shift_oracle(50, 53).passed


class TestAlpha:
    def test_examples(self):
        assert alpha(eta("x")) == x0
        assert alpha(eta("x") ** 2 * eta("y")) == x0 ** 2 * y0
        assert alpha(Poly.one()) == 1

    def test_morphism(self):
        p, q = eta("x") + 2, eta("y") * eta("x")
        assert alpha(p * q) == alpha(p) * alpha(q)


class TestNaturalMap:
    def test_shift_tower(self):
        assert natural_map(d_shift, x0, 2) == [x0, x1, dvar("x", 2)]

    def test_zero_steps(self):
        assert natural_map(d_shift, x0 * y0, 0) == [x0 * y0]

    def test_zero_derivation(self):
        zero = lambda p: Poly.zero()  # noqa: E731
        assert natural_map(zero, x0, 3) == [x0, 0, 0, 0]

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="tower order must be non-negative, got -1"):
            natural_map(d_shift, x0, -1)


class TestNesting:
    def test_encode_decode_roundtrip(self):
        rng = SplitMix64(59)
        for _ in range(30):
            p = random_diffpoly(rng)
            assert decode_nested(encode_nested(p)) == p

    def test_malformed(self):
        with pytest.raises(MalformedNesting):
            decode_nested("not json at all")
        with pytest.raises(MalformedNesting):
            decode_nested('{"wrong": "shape"}')
        with pytest.raises(MalformedNesting):
            beta(dvar("plain_name", 1))

    @pytest.mark.parametrize("text", [
        '[["1/0",[["x",0,1]]]]',      # zero denominator
        '[["1",[["x",1.5,1]]]]',      # fractional order
        '[["1",[["x",0,1.5]]]]',      # fractional exponent
        '[["1",[["x",0,0]]]]',        # zero exponent
        '[["1",[["x",true,1]]]]',     # boolean order
        '[[0.5,[["x",0,1]]]]',        # coefficient not a string
    ])
    def test_malformed_numbers(self, text):
        with pytest.raises(MalformedNesting):
            decode_nested(text)

    def test_beta_single_variable(self):
        inner = x0 * y0
        assert beta(nest(inner, 1)) == x1 * y0 + x0 * y1
        assert beta(nest(inner, 0)) == inner

    def test_left_unit(self):
        rng = SplitMix64(61)
        for _ in range(20):
            q = random_diffpoly(rng, 3)
            assert beta(nest(q, 0)) == q

    def test_right_unit(self):
        rng = SplitMix64(67)
        for _ in range(20):
            q = random_diffpoly(rng, 3, max_order=1)
            wrapped = rename_vars(
                q, lambda v: DVar(encode_nested(dvar(v.base, 0)), v.order)
            )
            assert beta(wrapped) == q

    def test_monad_laws_suite(self):
        for report in check_monad_laws(25, 71):
            assert report.passed, report.to_json()


class TestExtend:
    def setup_method(self):
        self.carrier = hurwitz_carrier(6)
        self.s = Series(tuple(Fraction(k + 1, 2) for k in range(7)), Flavor.HURWITZ)

    def test_generator(self):
        assert extend({"x": self.s}, self.carrier, dvar("x", 1)) == sderive(self.s)

    def test_product(self):
        got = extend({"x": self.s}, self.carrier, x0 * x1)
        want = self.carrier.mul(self.s, sderive(self.s))
        assert got.window_eq(want)

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            extend({"y": self.s}, self.carrier, x0)

    def test_ring_morphism(self):
        rng = SplitMix64(79)
        c = hurwitz_carrier(6)
        images = {
            "x": Series(tuple(Fraction(rng.randint(-4, 4)) for _ in range(7)), Flavor.HURWITZ),
            "y": Series(tuple(Fraction(rng.randint(-4, 4)) for _ in range(7)), Flavor.HURWITZ),
        }
        for _ in range(15):
            p = random_diffpoly(rng, 2, max_order=1, max_degree=2)
            q = random_diffpoly(rng, 2, max_order=1, max_degree=2)
            lhs = extend(images, c, p * q)
            rhs = c.mul(extend(images, c, p), extend(images, c, q))
            assert c.eq(lhs, rhs)
        assert extend(images, c, Poly.one()) == c.one

    def test_commutes_with_derivation(self):
        rng = SplitMix64(73)
        c = hurwitz_carrier(8)
        for _ in range(30):
            p = random_diffpoly(rng, 3, max_order=1, max_degree=3)
            images = {
                base: Series(tuple(Fraction(rng.randint(-5, 5)) for _ in range(9)),
                             Flavor.HURWITZ)
                for base in sorted({v.base for v in p.variables()})
            }
            lhs = extend(images, c, d_shift(p))
            rhs = c.d(extend(images, c, p))
            assert c.eq(lhs, rhs)
