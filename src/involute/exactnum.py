"""Exact rational scalars and the generalized binomial coefficient.

Every discrete computation in this package runs over ``fractions.Fraction``,
so equality checks are structural and nothing ever rounds.  The binomial
coefficient is the falling-factorial form binom(r, d) = r(r-1)...(r-d+1)/d!,
defined for any rational r and integer d >= 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OutOfRange
from .serialize import parse_rational


def as_rational(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '0.25', and Fractions exactly.

    Strings are read by `serialize.parse_rational`, which bounds a decimal
    exponent before Fraction builds its power of ten."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        # floats are rejected: 0.1 is not 1/10 and silent conversion would
        # poison exact-equality tests downstream
        raise OutOfRange(f"refusing inexact float {value!r}; pass a Fraction or string")
    return Fraction(value)


def binom(r, d: int) -> Fraction:
    """binom(r, d) = r(r-1)...(r-d+1)/d! for rational r and integer d >= 0."""
    if d < 0:
        raise OutOfRange(f"binom lower index must be >= 0, got {d}")
    r = as_rational(r)
    if r.denominator == 1:
        ri = r.numerator
        if ri >= 0:
            # math.comb already returns 0 when d > ri
            return Fraction(math.comb(ri, d))
        # negative integer upper index: (-1)^d * multiset count
        return Fraction((-1) ** d * math.comb(-ri + d - 1, d))
    num = Fraction(1)
    for k in range(d):
        num *= r - k
    return num / math.factorial(d)

