"""The shared sparse linear-combination core and the exactness contract of
the three types built on it: Poly, Tensor and RBElem."""

from fractions import Fraction

import pytest

from diffalg.hurwitz import Flavor, Series
from diffalg.lincomb import LinComb, coerce, drop_zeros
from diffalg.polynomial import EMPTY_MONO, Poly, Tensor, derive, eta
from diffalg.rota_baxter import RBElem

F = Fraction
x, y = eta("x"), eta("y")
MX = (("x", 1),)

INEXACT = [0.1, True, "1/2", None]


def samples():
    """One nonzero element of each LinComb type."""
    return [x * y + 3, derive(x ** 2 * y), RBElem.term([x], y, F(1, 2))]


class TestCoerce:
    def test_exact_values(self):
        assert coerce(3) == F(3) and type(coerce(3)) is Fraction
        half = F(1, 2)
        assert coerce(half) is half

    @pytest.mark.parametrize("value", INEXACT)
    def test_rejects(self, value):
        with pytest.raises(TypeError):
            coerce(value)


class TestExactnessContract:
    @pytest.mark.parametrize("value", [0.1, True])
    def test_constructors_reject(self, value):
        with pytest.raises(TypeError):
            Poly({EMPTY_MONO: value})
        with pytest.raises(TypeError):
            Poly.const(value)
        with pytest.raises(TypeError):
            Poly.monomial({"x": 1}, value)
        with pytest.raises(TypeError):
            Tensor({(EMPTY_MONO, "x"): value})
        with pytest.raises(TypeError):
            RBElem({((), EMPTY_MONO): value})
        with pytest.raises(TypeError):
            RBElem.term([x], y, value)

    @pytest.mark.parametrize("value", [0.1, True])
    def test_scalar_multiplication_rejects(self, value):
        for elem in samples():
            with pytest.raises(TypeError):
                value * elem
            with pytest.raises(TypeError):
                elem * value

    @pytest.mark.parametrize("value", [0.1, True])
    def test_poly_addition_rejects(self, value):
        with pytest.raises(TypeError):
            x + value
        with pytest.raises(TypeError):
            value - x

    def test_exact_scalars_accepted(self):
        for elem in samples():
            assert 2 * elem == elem + elem
            assert elem * F(1, 2) + elem * F(1, 2) == elem
            assert 0 * elem == type(elem).zero()

    def test_bool_exponent_rejected(self):
        with pytest.raises(ValueError):
            x ** True
        with pytest.raises(ValueError):
            x ** False
        s = Series((F(1), F(2), F(3)), Flavor.HURWITZ)
        with pytest.raises(ValueError):
            s ** True
        assert x ** 1 == x
        assert s ** 1 == s


class TestSharedOperations:
    def test_one_copy(self):
        for cls in (Poly, Tensor, RBElem):
            assert issubclass(cls, LinComb)
            for name in ("__eq__", "__hash__", "__neg__", "__sub__", "is_zero", "__bool__"):
                assert name not in vars(cls), (cls.__name__, name)

    def test_zero(self):
        for elem in samples():
            zero = type(elem).zero()
            assert zero.is_zero() and not zero
            assert not elem.is_zero() and elem
            assert elem - elem == zero
            assert (elem - elem).is_zero()
            assert elem + zero == elem

    def test_negation_and_hash(self):
        for elem in samples():
            assert -(-elem) == elem
            assert hash(elem + elem) == hash(2 * elem)
            assert elem + (-elem) == type(elem).zero()

    def test_types_do_not_mix(self):
        p, t, r = samples()
        assert p != t and t != r and r != p
        with pytest.raises(TypeError):
            t + r
        with pytest.raises(TypeError):
            p - t

    def test_cancellation_drops_keys(self):
        p = (x + y) - y
        assert dict(p.terms()) == {MX: F(1)}
        assert dict(((x + y) * (x - y)).terms()) == {(("x", 2),): F(1), (("y", 2),): F(-1)}

    def test_repr(self):
        assert repr(x + 1) == "Poly(x + 1)"
        assert repr(Tensor.of(y, "x")) == "Tensor(y (x) x)"
        assert repr(RBElem.one()) == "RBElem(1*([], 1))"


class TestHelpers:
    def test_drop_zeros_in_place(self):
        sums = {"a": F(1), "b": F(0), "c": F(-2), "d": 0}
        assert drop_zeros(sums) is sums
        assert sums == {"a": F(1), "c": F(-2)}

    def test_trusted_constructor_adopts(self):
        terms = {MX: F(5)}
        p = Poly._trusted(terms)
        assert p == 5 * x
        assert Poly._from_sums({MX: F(0), EMPTY_MONO: F(1)}) == Poly.one()
