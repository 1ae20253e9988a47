"""Binomial identities, checked exactly, and exact coercion."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involute.errors import OutOfRange
from involute.exactnum import as_rational, binom

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)


def test_binom_examples():
    assert binom(5, 2) == 10
    assert binom(F(1, 2), 2) == F(-1, 8)
    assert binom(-3, 2) == 6


def test_binom_zero_cases():
    for r in (F(7, 3), -2, 0, 11):
        assert binom(r, 0) == 1
    # non-negative integer upper index below the lower index
    assert binom(3, 5) == 0
    assert binom(0, 1) == 0


def test_binom_rejects_negative_lower_index():
    with pytest.raises(OutOfRange):
        binom(F(1, 2), -1)


def test_pascal_recurrence_exhaustive():
    for r in range(1, 31):
        for d in range(1, r + 1):
            assert binom(r, d) == binom(r - 1, d - 1) + binom(r - 1, d)


@given(rationals, st.integers(min_value=0, max_value=10))
@settings(max_examples=80)
def test_sign_rule(a_prime, y):
    assert binom(y - a_prime, y) == (-1) ** y * binom(a_prime - 1, y)


def mbinom(m, c: int):
    """Multiset binomial binom(m+c-1, c): c-multisubsets of an m-set."""
    return binom(m + c - 1, c)


def test_multiset_sum_identities():
    # four summation identities used as oracles throughout the package
    for c in range(7):
        for x in range(13):
            assert sum(mbinom(y + 1, c) for y in range(x + 1)) == mbinom(x + 1, c + 1)
    for c in range(7):
        for d in range(7):
            for n in range(1, 13):
                assert sum(
                    mbinom(n - x, c) * mbinom(x + 1, d) for x in range(n)
                ) == mbinom(n, c + d + 1)
            for x in range(13):
                assert sum(
                    mbinom(x - y + 1, c) * binom(y, d) for y in range(x + 1)
                ) == binom(x + c + 1, c + d + 1)
    for c in range(7):
        for m in range(1, 13):
            for x in range(13):
                assert sum(
                    mbinom(x - y + 1, c) * (-1) ** y * binom(m, y) for y in range(x + 1)
                ) == (-1) ** x * binom(m - c - 1, x)


def test_float_inputs_are_rejected():
    with pytest.raises(OutOfRange):
        binom(0.5, 2)


def test_as_rational_bounds_string_exponents():
    # strings are read by serialize.parse_rational: "1e-1000000" is refused
    # before Fraction builds 10**1000000, which takes a third of a second
    start = time.perf_counter()
    with pytest.raises(OutOfRange, match="above the limit of 4300"):
        as_rational("1e-1000000")
    assert time.perf_counter() - start < 0.05
    for value, expected in (("3/4", F(3, 4)), ("0.25", F(1, 4)), (5, F(5)), (-2, F(-2)),
                            ("1e-4300", F(1, 10**4300)), (F(2, 3), F(2, 3))):
        result = as_rational(value)
        assert (type(result), result) == (F, expected)
