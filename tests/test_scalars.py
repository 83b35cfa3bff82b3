from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffalg.scalars import binom, factorial


def test_binom_examples():
    assert binom(0, 0) == 1
    assert binom(4, 2) == 6  # Pascal row 4: 1 4 6 4 1
    assert binom(3, 5) == 0  # k > n convention


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(5) == 120


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        binom(-1, 0)
    with pytest.raises(ValueError):
        binom(3, -1)
    with pytest.raises(ValueError):
        factorial(-2)


def test_non_int_arguments_rejected():
    for bad in (True, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            binom(bad, 1)
        with pytest.raises(TypeError):
            binom(4, bad)
        with pytest.raises(TypeError):
            factorial(bad)


@given(st.integers(0, 60), st.integers(0, 60))
def test_pascal_identity(n, k):
    if 1 <= k <= n:
        assert binom(n, k) + binom(n, k - 1) == binom(n + 1, k)


@given(st.integers(0, 40))
def test_row_sum_and_factorial_formula(n):
    assert sum(binom(n, k) for k in range(n + 1)) == 2 ** n
    for k in range(n + 1):
        assert binom(n, k) == factorial(n) // (factorial(k) * factorial(n - k))


fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 4)


@given(fractions, fractions, fractions)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * b == b * a


def test_rational_canonical_form():
    x = Fraction(6, -4)
    assert x.denominator > 0
    assert (x.numerator, x.denominator) == (-3, 2)
    assert str(Fraction(3, 1)) == "3"
    assert str(Fraction(3, 4)) == "3/4"
