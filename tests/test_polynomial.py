import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffalg import polynomial
from diffalg.carriers import random_poly
from diffalg.errors import MixedVariables, NonLinearImage, UnboundVariable
from diffalg.free_diff import DVar, dvar
from diffalg.polynomial import (
    LinearMap,
    Poly,
    Tensor,
    coderive,
    derive,
    derive_twice,
    eta,
    euler,
    evaluate,
    flat,
    map_linear,
    partial,
    rename_vars,
    sharp,
    substitute,
    sum_products,
    unit_poly,
)
from diffalg.rng import SplitMix64

x, y, z = eta("x"), eta("y"), eta("z")


class TestRingOps:
    def test_add(self):
        assert (x + 1) + (-1) == x
        p = x * y + 2
        assert Poly.zero() + p == p
        assert x ** 2 + x ** 2 == 2 * x ** 2

    def test_mul(self):
        assert (x + 1) * (x - 1) == x ** 2 - 1
        p = 3 * x * y - y
        assert unit_poly() * p == p
        # (x+y)^2 expanded by hand
        assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2

    def test_mul_commutative_associative(self):
        rng = SplitMix64(3)
        for _ in range(25):
            p, q, r = (random_poly(rng, 3) for _ in range(3))
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)

    def test_scalar_promotion(self):
        assert Fraction(1, 2) * x + Fraction(1, 2) * x == x
        assert x * 0 == Poly.zero()
        assert Poly.const(5) == 5
        assert Poly.zero() == 0

    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), Fraction(2), True, "2"],
                             ids=["float", "integral-float", "fraction", "integral-fraction",
                                  "bool", "str"])
    def test_monomial_exponents_must_be_ints(self, bad):
        """An exponent that is not an int is refused, not rounded or read:
        int() would make x^1.5 and x^True into x and "2" into x^2."""
        with pytest.raises(TypeError, match="exponent of 'x' must be an int"):
            Poly.monomial({"y": 1, "x": bad})

    def test_pow(self):
        assert x ** 0 == 1
        assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
        with pytest.raises(ValueError):
            x ** -1

    @pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3)])
    def test_pow_products(self, n, products, monkeypatch):
        """Square-and-multiply from the base: p**n takes one squaring per
        bit after the first and one product per further set bit."""
        calls = []
        mul = Poly.__mul__

        def counting_mul(self, other):
            calls.append(other)
            return mul(self, other)

        p = x + 2 * y
        want = Poly.one()
        for _ in range(n):
            want = want * p
        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        got = p ** n
        monkeypatch.undo()
        assert len(calls) == products
        assert got == want

    def test_degenerate_inputs(self):
        assert Poly.zero().is_zero()
        assert derive(Poly.zero()).is_zero()
        assert substitute(Poly.zero(), {"x": y}) == 0
        assert Poly.const(0) == Poly.zero()


class TestConstantHash:
    """A constant polynomial equals its rational value and hashes as it."""

    @pytest.mark.parametrize("value", [3, -1, 0, 2 ** 70, Fraction(1, 2), Fraction(-7, 3),
                                       Fraction(6, 3)])
    def test_set_and_dict_membership(self, value):
        p = Poly.const(value)
        assert p == value and hash(p) == hash(value)
        assert p in {value} and value in {p} and len({p, value}) == 1
        assert {value: "v"}[p] == "v" and {p: "p"}[value] == "p"

    def test_zero(self):
        for zero in (Poly.zero(), Poly.const(0), x - x):
            assert zero == 0 and hash(zero) == hash(0) == hash(Fraction(0))
            assert zero in {0} and len({zero, 0, Fraction(0)}) == 1

    def test_other_hashes_unchanged(self):
        """Non-constant polynomials and tensors hash as before: the
        denominator with the numerator items."""
        for elem in (x, 2 * x + 1, x * Fraction(1, 3) - y, Tensor.zero(), derive(x * y)):
            assert hash(elem) == hash((elem._den, frozenset(elem._num.items())))


class TestSubstitute:
    def test_expansion(self):
        X = eta("X")
        assert substitute(X ** 2, {"X": x + y}) == x ** 2 + 2 * x * y + y ** 2

    def test_identity_env(self):
        p = x ** 2 * y - 3 * z
        assert substitute(p, {}) == p
        assert substitute(p, {"x": x}) == p

    def test_constants_pass_through(self):
        X, Y = eta("X"), eta("Y")
        assert substitute(X * Y, {"X": Poly.const(2), "Y": z}) == 2 * z

    def test_ring_morphism(self):
        rng = SplitMix64(11)
        env = {"w": x + y, "x": y ** 2, "y": Poly.const(3), "z": x * z}
        for _ in range(20):
            p, q = random_poly(rng, 3), random_poly(rng, 3)
            assert substitute(p * q, env) == substitute(p, env) * substitute(q, env)
            assert substitute(p + q, env) == substitute(p, env) + substitute(q, env)
        assert substitute(unit_poly(), env) == 1

    def test_unit_triangle(self):
        p = x ** 2 + y
        assert substitute(eta("X"), {"X": p}) == p

    def test_renaming_equals_the_expansion(self):
        """Images that are single variables with coefficient 1 rename: the
        substitution and rename_vars both agree with multiplying the images
        out, where variables swap and where two of them collide."""
        rng = SplitMix64(13)
        for env in ({"x": y, "y": x}, {"x": z, "y": z, "w": x}, {"z": eta("t")}):
            def image(v):
                return env.get(v, Poly.variable(v))

            def name(v):
                return image(v).variables()[0]
            for _ in range(20):
                p = random_poly(rng, 3)
                want = evaluate(p, image, Poly.one(), operator.mul, Poly.zero())
                assert substitute(p, env) == want
                assert rename_vars(p, name) == want

    def test_renaming_forms_no_product(self, monkeypatch):
        """rename_vars rebuilds each monomial from its renamed exponents;
        substitute, the control, multiplies the same images out."""
        p = 3 * x ** 2 * y - z + 1
        swap = {"x": "y", "y": "x"}
        renamed, merged = 3 * y ** 2 * x - z + 1, 3 * eta("t") ** 3 - z + 1
        products = []
        mul = Poly.__mul__

        def counted(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Poly, "__mul__", counted)
        assert rename_vars(p, lambda v: swap.get(v, v)) == renamed
        assert rename_vars(p, lambda v: "t" if v in swap else v) == merged
        assert products == []
        assert substitute(p, {"x": y, "y": x}) == renamed
        assert products

    def test_images_over_variables_of_different_kinds(self):
        """The images are looked up over the unsorted variable set, so a sum
        whose terms hold variables of different kinds substitutes; it cannot
        be printed, so it is compared with ==."""
        assert substitute(x + dvar("y"), {"x": z}) == z + dvar("y")

    def test_renaming_to_mixed_kinds(self):
        with pytest.raises(MixedVariables, match="DVar, str"):
            rename_vars(x * y, lambda v: DVar(v, 0) if v == "x" else v)


class TestEvaluate:
    def test_each_power_is_computed_once(self):
        looked_up, products = [], []

        def value_of(v):
            looked_up.append(v)
            return Fraction({"x": 2, "y": 3}[v])

        def mul(a, b):
            products.append((a, b))
            return a * b

        p = 5 * x ** 3 * y + x ** 3 - 7 * y + 1
        got = evaluate(p, value_of, Fraction(1), mul, Fraction(0))
        assert got == 5 * 8 * 3 + 8 - 7 * 3 + 1
        # (x, 3) and (y, 1) are looked up once each; x^3 costs two products
        # and the one two-factor monomial a third.
        assert sorted(looked_up) == ["x", "y"]
        assert len(products) == 3


class TestMapLinear:
    def test_expand(self):
        u, v = eta("u"), eta("v")
        f = LinearMap({"x": u + v, "y": u})
        # (u+v)^2 * u expanded by hand
        want = u ** 3 + 2 * u ** 2 * v + u * v ** 2
        assert map_linear(x ** 2 * y, f) == want

    def test_identity_and_zero(self):
        p = x ** 2 * y + 3 * x
        assert map_linear(p, LinearMap({})) == p
        assert map_linear(x, LinearMap({"x": Poly.zero()})) == 0

    def test_rejects_nonlinear(self):
        with pytest.raises(NonLinearImage):
            map_linear(x, LinearMap({"x": x ** 2}))
        with pytest.raises(NonLinearImage):
            map_linear(x, LinearMap({"x": x + 1}))

    def test_preserves_products(self):
        rng = SplitMix64(5)
        f = LinearMap({"w": x, "x": 2 * y, "y": y - z, "z": Poly.variable("w")})
        for _ in range(20):
            p, q = random_poly(rng, 3), random_poly(rng, 3)
            assert map_linear(p * q, f) == map_linear(p, f) * map_linear(q, f)
        assert map_linear(unit_poly(), f) == 1


class TestDerive:
    def test_partials_by_hand(self):
        t = derive(x ** 2 * y)
        want = Tensor.of(2 * x * y, "x") + Tensor.of(x ** 2, "y")
        assert t == want

    def test_constant_rule(self):
        assert derive(Poly.const(7)).is_zero()
        assert derive(unit_poly()).is_zero()

    def test_linear_rule(self):
        assert derive(x) == Tensor.of(unit_poly(), "x")

    def test_printing(self):
        assert str(Tensor.zero()) == "0"
        assert str(derive(x ** 2 * y)) == "2*x*y (x) x + x^2 (x) y"

    def test_coderive(self):
        assert coderive(Tensor.of(x + y, "x")) == x ** 2 + x * y
        assert coderive(Tensor.zero()) == 0
        t = Tensor.of(unit_poly(), "x") + Tensor.of(unit_poly(), "y")
        assert coderive(t) == x + y

    def test_partial(self):
        assert partial(x ** 2 * y, "x") == 2 * x * y
        assert partial(x ** 2 * y, "y") == x ** 2
        assert partial(x, "y") == 0


class TestEuler:
    def test_examples(self):
        assert euler(x ** 2 * y) == 3 * x ** 2 * y
        assert euler(Poly.const(9)) == 0
        assert euler(x + y) == x + y

    def test_degree_scaling_exhaustive(self):
        for degs in itertools.product(range(4), repeat=3):
            m = Poly.monomial({"x": degs[0], "y": degs[1], "z": degs[2]})
            assert euler(m) == sum(degs) * m


class TestFlatSharp:
    def test_flat_examples(self):
        assert flat({"x": unit_poly()}, x ** 2) == 2 * x
        assert flat({"x": y ** 2}, Poly.const(5)) == 0
        assert flat({"x": x}, x ** 3) == 3 * x ** 3
        assert flat({"x": x}, x ** 3) == euler(x ** 3)

    def test_flat_unbound(self):
        with pytest.raises(UnboundVariable):
            flat({"x": y}, x * y)

    def test_flat_unbound_before_any_partial(self, monkeypatch):
        """A missing image is reported before any partial is taken, also
        when the unbound variable sorts last."""
        taken = []
        monkeypatch.setattr(polynomial, "partial", lambda p, v: taken.append(v))
        with pytest.raises(UnboundVariable, match="'z'"):
            flat({"x": y, "y": x}, x * y * z)
        assert taken == []

    def test_sharp_builds_no_identity_image(self, monkeypatch):
        """Under the poly_sharp carrier's cycle map, which has an image for
        every variable, sharp builds no identity image Poly.variable(v);
        a variable the map leaves out still stands for itself."""
        from diffalg.carriers import poly_sharp_carrier

        d = poly_sharp_carrier().d
        rng = SplitMix64(29)
        polys = [random_poly(rng, 6) for _ in range(20)]
        made = []
        variable = Poly.variable
        monkeypatch.setattr(Poly, "variable", lambda v: made.append(v) or variable(v))
        for p in polys:
            d(p)
        assert made == []
        assert sharp(LinearMap({"x": y}), x * y) == y * y + x * y
        assert made == ["y"]

    def test_flat_is_the_fold(self):
        """flat is one sum_products; it equals the sum of the partials
        times the images, added one at a time, for Poly and scalar images
        with mixed denominators."""
        rng = SplitMix64(23)
        for _ in range(40):
            p = random_poly(rng, 5)
            images = {v: random_poly(rng, 3) if rng.randint(0, 3)
                      else Fraction(rng.randint(-5, 5), 3) for v in p.variables()}
            fold = Poly.zero()
            for v in p.variables():
                fold = fold + partial(p, v) * images[v]
            got = flat(images, p)
            assert got == fold
            assert canonical(got)

    def test_flat_is_derivation(self):
        rng = SplitMix64(17)
        images = {"w": x * y, "x": Poly.const(1), "y": z ** 2, "z": x + y}
        for _ in range(20):
            p, q = random_poly(rng, 3), random_poly(rng, 3)
            lhs = flat(images, p * q)
            rhs = p * flat(images, q) + flat(images, p) * q
            assert lhs == rhs

    def test_flat_chain_rule_two_ways(self):
        # differentiating after substitution agrees with substituting the
        # partials and differentiating the images
        rng = SplitMix64(19)
        images = {"w": x * y, "x": unit_poly(), "y": z ** 2, "z": x + y}
        for _ in range(20):
            p = random_poly(rng, 2, pool=("X1", "X2"), max_degree=3)
            env = {v: random_poly(rng, 2, max_degree=2) for v in ("X1", "X2")}
            lhs = flat(images, substitute(p, env))
            rhs = Poly.zero()
            for v in ("X1", "X2"):
                dp = partial(p, v)
                if not dp.is_zero():
                    rhs = rhs + substitute(dp, env) * flat(images, env[v])
            assert lhs == rhs

    def test_sharp_examples(self):
        ident = LinearMap({})
        assert sharp(ident, x ** 2 * y) == 3 * x ** 2 * y  # identity gives euler
        swap = LinearMap({"x": y, "y": x})
        assert sharp(swap, x ** 2) == 2 * x * y
        assert sharp(LinearMap({"x": Poly.zero(), "y": Poly.zero()}), x * y) == 0

    def test_sharp_rejects_nonlinear(self):
        with pytest.raises(NonLinearImage):
            sharp(LinearMap({"x": x ** 2}), x ** 2)

    def test_sharp_rejects_nonlinear_before_any_product(self, monkeypatch):
        """NonLinearImage names the variable map_var named, the first of p
        in the order of its terms whose image is not linear, and is raised
        before any monomial is multiplied."""
        rng = SplitMix64(31)
        images = (x * y, x + 1, Poly.const(2), y * Fraction(1, 2), x + z * Fraction(3, 5))
        cases = []
        for _ in range(100):
            p = random_poly(rng, 4)
            g = LinearMap({v: rng.choice(images) for v in ("w", "x", "y", "z")})
            try:
                cases.append((p, g, coderive(derive(p).map_var(g))))
            except NonLinearImage as exc:
                cases.append((p, g, str(exc)))
        products = []
        mono_mul = polynomial.mono_mul
        monkeypatch.setattr(polynomial, "mono_mul",
                            lambda a, b: products.append(a) or mono_mul(a, b))
        assert any(isinstance(want, str) for _, _, want in cases)
        assert any(isinstance(want, Poly) for _, _, want in cases)
        for p, g, want in cases:
            products.clear()
            if isinstance(want, Poly):
                assert sharp(g, p) == want
            else:
                with pytest.raises(NonLinearImage) as exc:
                    sharp(g, p)
                assert (str(exc.value), products) == (want, [])

    def test_sharp_restricted_to_generators_recovers_map(self):
        g = LinearMap({"x": y, "y": x + z, "z": 2 * z})
        for v in ("x", "y", "z"):
            assert sharp(g, eta(v)) == g.image(v)


class TestAxioms:
    """The five defining rules of the total-derivative tensor."""

    def test_leibniz(self):
        rng = SplitMix64(23)
        for _ in range(50):
            p, q = random_poly(rng), random_poly(rng)
            assert derive(p * q) == derive(p).scale_poly(q) + derive(q).scale_poly(p)

    def test_chain(self):
        rng = SplitMix64(29)
        X1, X2 = eta("X1"), eta("X2")
        for _ in range(30):
            p = random_poly(rng, 3, pool=("X1", "X2"), max_degree=3)
            env = {"X1": random_poly(rng, 2, max_degree=2), "X2": random_poly(rng, 2, max_degree=2)}
            lhs = derive(substitute(p, env))
            rhs = Tensor.zero()
            for v in ("X1", "X2"):
                dp = partial(p, v)
                if not dp.is_zero():
                    rhs = rhs + derive(env[v]).scale_poly(substitute(dp, env))
            assert lhs == rhs

    def test_interchange(self):
        rng = SplitMix64(31)
        for _ in range(50):
            p = random_poly(rng)
            grid = derive_twice(p)
            assert grid == {(m, vi, vj): c for (m, vj, vi), c in grid.items()}

    def test_naturality_of_derive(self):
        rng = SplitMix64(37)
        f = LinearMap({"w": x + y, "x": 2 * z, "y": y, "z": Poly.variable("w") - z})
        for _ in range(30):
            p = random_poly(rng, 3)
            lhs = derive(map_linear(p, f))
            rhs = derive(p).map_poly(lambda q: map_linear(q, f)).map_var(f)
            assert lhs == rhs


class TestRenameVars:
    def test_rename(self):
        seen = []

        def upper(v):
            seen.append(v)
            return v.upper()

        assert rename_vars(x ** 2 * y - 2 * x, upper) == eta("X") ** 2 * eta("Y") - 2 * eta("X")
        assert sorted(seen) == ["x", "y"]  # once per distinct variable

    def test_merging_collisions(self):
        assert rename_vars(x * y, lambda v: "t") == eta("t") ** 2


def test_str_canonical_order():
    p = 2 * x + x ** 2 + 1
    assert str(p) == "x^2 + 2*x + 1"
    assert str(Poly.zero()) == "0"
    # terms sort descending on (degree, variable sequence); negative
    # coefficients keep their sign inside " + " joins
    assert str(x - y) == "-1*y + x"


def canonical(p: Poly) -> bool:
    """The integer store: nonzero numerators over a positive den, gcd 1."""
    return (p._den > 0 and 0 not in p._num.values()
            and math.gcd(p._den, *p._num.values()) == 1)


MONOS = [(), (("x", 1),), (("x", 2),), (("x", 1), ("y", 1)), (("y", 3),), (("y", 1), ("z", 2))]
fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
small_polys = st.dictionaries(st.sampled_from(MONOS), fractions, max_size=4).map(Poly)
triples = st.lists(st.tuples(st.integers(-6, 6), small_polys, small_polys), max_size=6)


def fold(triples) -> Poly:
    """sum of w·a·b, one product, one scaling and one addition at a time."""
    out = Poly.zero()
    for w, a, b in triples:
        out = out + w * (a * b)
    return out


class TestSumProducts:
    """polynomial.sum_products(triples) is sum of w·a·b, built in one pass
    over one denominator."""

    @given(triples)
    def test_equals_the_fold(self, triples):
        got = sum_products(triples)
        assert got == fold(triples)
        assert type(got) is Poly and canonical(got)

    @given(triples)
    def test_full_cancellation(self, triples):
        """Each triple against its negation, and against its own weight
        split over two triples, leaves the canonical zero."""
        got = sum_products(triples + [(-w, b, a) for w, a, b in triples])
        assert (got._num, got._den) == ({}, 1)
        split = triples + [(w, a * 2, b) for w, a, b in triples]
        assert sum_products(split + [(-3 * w, b, a) for w, a, b in triples]) == 0

    def test_empty_and_zero_weights(self):
        assert (sum_products([])._num, sum_products([])._den) == ({}, 1)
        zero = sum_products(iter([(0, x + 1, y * Fraction(1, 3)), (0, x, x)]))
        assert (zero._num, zero._den) == ({}, 1)

    def test_mixed_denominators(self):
        F = Fraction
        a, b, c = x * F(1, 2) + y * F(1, 3), y * F(1, 5) - 1, x * y * F(1, 7)
        got = sum_products([(3, a, b), (-2, b, c), (1, c, a)])
        assert got == 3 * a * b - 2 * b * c + c * a
        assert canonical(got)

    def test_one_product_is_mul(self):
        rng = SplitMix64(29)
        for _ in range(30):
            p, q = random_poly(rng), random_poly(rng)
            got = sum_products([(1, p, q)])
            assert (got._num, got._den) == ((p * q)._num, (p * q)._den)

    def test_mixed_variables(self):
        """A term product of a plain and a derivative variable raises, as
        Poly.__mul__ does, whatever its weight."""
        with pytest.raises(MixedVariables):
            x * dvar("x")
        for w in (1, 0, -2):
            with pytest.raises(MixedVariables):
                sum_products([(1, x, x), (w, x + 1, dvar("x"))])
