"""The monomial kernel: mono_from_exponents, mono_mul, mono_lower, mono_str.

Every monomial the package builds must come out canonical (variables
strictly increasing, exponents >= 1), whichever operation built it, and
only the kernel may sort one into order.  ``free_diff.d_shift`` builds its
keys by insertion; the canonical-key properties below cover it.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffalg.carriers import diffpoly_carrier
from diffalg.errors import DiffalgError, MixedVariables
from diffalg.free_diff import DVar, alpha, d_shift, decode_nested, dvar, encode_nested
from diffalg.hurwitz import colift
from diffalg.polynomial import (Poly, derive, eta, mono_from_exponents, mono_lower, mono_mul,
                                mono_str, partial)

SRC = Path(__file__).resolve().parent.parent / "src" / "diffalg"


def is_canonical(m) -> bool:
    return (isinstance(m, tuple)
            and all(type(e) is int and e >= 1 for _, e in m)
            and all(m[k][0] < m[k + 1][0] for k in range(len(m) - 1)))


def polys(variables):
    """Polynomials of up to 4 terms, each a product of up to 3 of the given
    variables with exponents 1..3."""
    monomial = st.dictionaries(variables, st.integers(1, 3), max_size=3)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(st.tuples(monomial, coeff), max_size=4).map(
        lambda terms: sum((Poly.monomial(e, c) for e, c in terms), Poly.zero()))


plain_polys = polys(st.sampled_from(("w", "x", "y", "z")))
diff_polys = polys(st.builds(DVar, st.sampled_from(("x", "y")), st.integers(0, 3)))


def check_keys(p: Poly) -> None:
    for m, _ in p.terms():
        assert is_canonical(m), m


def check_derivative_keys(p: Poly) -> None:
    check_keys(p * p)
    for (m, v), _ in derive(p).pairs():
        assert is_canonical(m), m
    for v in p.variables():
        check_keys(partial(p, v))


class TestKernel:
    def test_from_exponents_sorts_and_drops_zeros(self):
        assert mono_from_exponents({"y": 2, "x": 1, "z": 0}) == (("x", 1), ("y", 2))
        with pytest.raises(ValueError):
            mono_from_exponents({"x": -1})

    def test_mul_merges(self):
        assert mono_mul((("x", 1), ("z", 2)), (("y", 1), ("z", 1))) == (("x", 1), ("y", 1), ("z", 3))
        assert mono_mul((), (("x", 1),)) == (("x", 1),)

    @pytest.mark.parametrize("a, b, want", [
        # a variable shared at the front, and at the back
        ({"w": 1, "y": 2}, {"w": 3, "z": 1}, {"w": 4, "y": 2, "z": 1}),
        ({"w": 1, "z": 2}, {"x": 1, "z": 1}, {"w": 1, "x": 1, "z": 3}),
        # disjoint and interleaved
        ({"w": 1, "y": 2}, {"x": 3, "z": 1}, {"w": 1, "x": 3, "y": 2, "z": 1}),
        # one side runs out first, leaving a tail of the other
        ({"w": 1}, {"x": 1, "y": 2, "z": 3}, {"w": 1, "x": 1, "y": 2, "z": 3}),
        ({"x": 1, "y": 2, "z": 3}, {"w": 1}, {"w": 1, "x": 1, "y": 2, "z": 3}),
        ({"w": 2, "x": 1}, {"w": 1, "x": 4}, {"w": 3, "x": 5}),
    ])
    def test_mul_cases(self, a, b, want):
        assert mono_mul(mono_from_exponents(a), mono_from_exponents(b)) == mono_from_exponents(want)

    def test_mul_by_one_is_the_operand(self):
        m = (("x", 1), ("y", 2))
        assert mono_mul(m, ()) is m
        assert mono_mul((), m) is m

    def test_lower(self):
        m = (("x", 1), ("y", 3), ("z", 1))
        assert mono_lower(m, 0) == (("y", 3), ("z", 1))
        assert mono_lower(m, 1) == (("x", 1), ("y", 2), ("z", 1))
        assert mono_lower(m, 2) == (("x", 1), ("y", 3))
        assert mono_lower((("x", 1),), 0) == ()

    def test_str(self):
        assert mono_str(()) == "1"
        assert mono_str((("x", 1), ("y", 2))) == "x*y^2"


class TestMixedVariables:
    def test_product(self):
        with pytest.raises(MixedVariables) as info:
            alpha(eta("x")) * Poly.variable("y")
        assert isinstance(info.value, DiffalgError)

    def test_colift(self):
        with pytest.raises(MixedVariables):
            colift({DVar("x", 1): Poly.variable("t")}, diffpoly_carrier(), dvar("x") * dvar("y"), 2)

    def test_from_exponents(self):
        with pytest.raises(MixedVariables):
            mono_from_exponents({"y": 1, DVar("x", 0): 1})

    @pytest.mark.parametrize("a, b", [
        (((DVar("x", 0), 1),), (("y", 2),)),
        ((("y", 2),), ((DVar("x", 0), 1),)),
        ((("a", 1), ("b", 1)), ((DVar("x", 0), 1), (DVar("x", 2), 1))),
    ])
    def test_kernel_product(self, a, b):
        """Whichever operand holds the DVars, the kernel's own product
        raises the typed error."""
        with pytest.raises(MixedVariables, match="in one monomial: DVar, str"):
            mono_mul(a, b)

    def test_sum(self):
        """A sum of mixed kinds builds, because addition never orders
        monomials; printing it and listing its variables both need an
        order, and fail with the typed error."""
        mixed = alpha(eta("x")) + Poly.variable("y")
        with pytest.raises(MixedVariables, match="DVar, str"):
            str(mixed)
        with pytest.raises(MixedVariables, match="DVar, str"):
            mixed.variables()

    def test_sum_of_different_degrees(self):
        """The terms of this sum differ in degree, so sorting them never
        compares an order-0 DVar x with the plain name y; printed, x^2 + y
        would read as a plain polynomial."""
        mixed = alpha(eta("x")) ** 2 + Poly.variable("y")
        with pytest.raises(MixedVariables, match="DVar, str"):
            str(mixed)
        with pytest.raises(MixedVariables, match="DVar, str"):
            mixed.variables()


@given(plain_polys, plain_polys)
def test_plain_keys_are_canonical(p, q):
    check_keys(p * q)
    check_derivative_keys(p)
    check_keys(alpha(p))


@given(diff_polys, diff_polys)
def test_differential_keys_are_canonical(p, q):
    check_keys(p * q)
    check_derivative_keys(p)
    check_keys(d_shift(p))
    decoded = decode_nested(encode_nested(p))
    check_keys(decoded)
    assert decoded == p


def test_monomials_are_sorted_only_in_the_kernel():
    """`tuple(sorted(` builds a monomial by hand; only the kernel may.
    Poly.variables sorts a set of variables and builds no monomial."""
    allowed = {("polynomial.py", "_sorted_mono"), ("polynomial.py", "variables")}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        functions = [node for node in ast.walk(ast.parse(text))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(text.splitlines(), 1):
            if "tuple(sorted(" in line:
                enclosing = [f for f in functions if f.lineno <= lineno <= f.end_lineno]
                name = min(enclosing, key=lambda f: f.end_lineno - f.lineno).name if enclosing else None
                found.add((path.name, name))
    assert found <= allowed, found - allowed


def test_cli_prints_monomials_without_building_polynomials():
    assert "Fraction(1)})" not in (SRC / "cli.py").read_text()


exponent_maps = st.dictionaries(st.sampled_from(("w", "x", "y", "z")), st.integers(1, 4), min_size=1)
# Bases x and y at orders 0-3, so that the orders of one base interleave
# with those of the other in a sorted monomial.
dvar_exponent_maps = st.dictionaries(st.builds(DVar, st.sampled_from(("x", "y")), st.integers(0, 3)),
                                     st.integers(1, 4))


def check_mul_adds_exponents(a: dict, b: dict) -> None:
    """The merge agrees with a sort of the summed exponent maps."""
    want = mono_from_exponents({v: a.get(v, 0) + b.get(v, 0) for v in {**a, **b}})
    assert mono_mul(mono_from_exponents(a), mono_from_exponents(b)) == want


@given(exponent_maps, exponent_maps)
def test_mul_adds_exponents(a, b):
    check_mul_adds_exponents(a, b)


@given(dvar_exponent_maps, dvar_exponent_maps)
def test_mul_adds_exponents_of_dvars(a, b):
    check_mul_adds_exponents(a, b)


@given(exponent_maps)
def test_lower_agrees_with_a_sort(exponents):
    """Lowering one factor keeps the order a sort would give."""
    m = mono_from_exponents(exponents)
    for i, (v, e) in enumerate(m):
        assert mono_lower(m, i) == mono_from_exponents({**exponents, v: e - 1})
