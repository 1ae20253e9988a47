"""Weight families: values, norms, domains, classification, factorization."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involute.errors import IndexOutOfDomain, MalformedWeight, OutOfRange
from involute.exactnum import binom
from involute.transform import binomial_transform
from involute.walk import stationary, transition_matrix
from involute.weights import (
    UNBOUNDED,
    Custom,
    DeltaAB,
    GammaAB,
    GammaC,
    custom_from_csv,
    domain_limit,
    factorize,
    norm,
    norm_table,
    weight_table,
)

from oracles import classify_weight, custom_from_down_step, weight_value


def test_weight_value_examples():
    assert weight_value(GammaAB(1, 0), 0, 3) == 1
    assert weight_value(GammaC(2), 1, 3) == 12
    assert weight_value(DeltaAB(4, 2), 0, 2) == 0


def test_parameter_validation():
    with pytest.raises(OutOfRange):
        GammaAB(-1, 0)
    with pytest.raises(OutOfRange):
        GammaC(0)
    with pytest.raises(OutOfRange):
        DeltaAB(1, 2)
    with pytest.raises(MalformedWeight):
        Custom(2, {(0, 0): F(1), (0, 1): F(-1)})
    with pytest.raises(MalformedWeight):
        Custom(2, {(0, 0): F(1)})  # column x=1 sums to zero


def test_norm_examples():
    assert norm(GammaAB(0, 0), 3) == 4
    assert norm(GammaC(1), 3) == 8
    assert norm(DeltaAB(4, 2), 2) == 6


def test_norm_closed_form_matches_direct_sum():
    specs = [
        GammaAB(F(-1, 2), F(1, 2)),
        GammaAB(0, 0),
        GammaAB(2, 1),
        GammaC(F(1, 2)),
        GammaC(2),
        DeltaAB(4, 2),
        DeltaAB(5, 3),
        DeltaAB(F(7, 2), F(5, 2)),
    ]
    for spec in specs:
        limit = domain_limit(spec)
        top = 12 if limit == UNBOUNDED else int(limit)
        for x in range(top):
            direct = sum(weight_value(spec, y, x) for y in range(x + 1))
            assert norm(spec, x) == direct


def _closed_form(spec, y, x):
    """The family formulas of the module docstring, one binom per factor."""
    if isinstance(spec, GammaAB):
        return binom(y + spec.a, y) * binom(spec.b + x - y, x - y)
    if isinstance(spec, GammaC):
        return binom(x, y) * spec.c ** (x - y)
    return binom(spec.a_prime - 1, y) * binom(spec.b_prime - 1, x - y)


def _closed_norm(spec, x):
    if isinstance(spec, GammaAB):
        return binom(x + spec.a + spec.b + 1, x)
    if isinstance(spec, GammaC):
        return (spec.c + 1) ** x
    return binom(spec.a_prime + spec.b_prime - 2, x)


def _params(lower, upper):
    # integers and fractions with denominators up to 7, strictly above lower
    return st.fractions(min_value=lower, max_value=upper, max_denominator=7).filter(
        lambda v: v > lower
    )


named_specs = st.one_of(
    st.builds(GammaAB, _params(-1, 6), _params(-1, 6)),
    st.builds(GammaC, _params(0, 4)),
    st.builds(DeltaAB, _params(1, 14), _params(1, 14)),
)


@given(named_specs, st.data())
@settings(max_examples=120, deadline=None)
def test_weight_table_matches_weight_value_and_closed_forms(spec, data):
    limit = domain_limit(spec)
    n = data.draw(st.integers(min_value=1, max_value=14 if limit == UNBOUNDED else limit))
    table = weight_table(spec, n)
    assert [len(row) for row in table] == list(range(1, n + 1))
    for x in range(n):
        for y in range(x + 1):
            assert table[x][y] == weight_value(spec, y, x) == _closed_form(spec, y, x)
    norms = norm_table(spec, n)
    assert norms == [norm(spec, x) for x in range(n)]
    assert norms == [_closed_norm(spec, x) for x in range(n)]


def test_weight_table_custom_and_domain():
    spec = Custom(3, {(0, 0): F(1), (0, 1): F(2), (1, 1): F(1, 2), (2, 2): F(3)})
    assert weight_table(spec, 3) == [[1], [2, F(1, 2)], [0, 0, 3]]
    assert norm_table(spec, 3) == [1, F(5, 2), 3]
    with pytest.raises(IndexOutOfDomain):
        weight_table(DeltaAB(4, 2), 5)
    with pytest.raises(IndexOutOfDomain):
        norm_table(spec, 4)


def test_domain_limits():
    assert domain_limit(GammaAB(F(1, 2), F(1, 2))) == UNBOUNDED
    assert domain_limit(GammaC(3)) == UNBOUNDED
    assert domain_limit(DeltaAB(4, 2)) == 4
    assert domain_limit(DeltaAB(5, 3)) == 5
    # non-integer b' caps n at ceil b' = 3: binom(3/2, 3) < 0 kills n = 4
    assert domain_limit(DeltaAB(F(7, 2), F(5, 2))) == 3
    assert domain_limit(Custom(3, {(y, x): F(1) for x in range(3) for y in range(x + 1)})) == 3


def _scanned_delta_domain(spec):
    """Oracle: the first column x with a non-positive diagonal, a negative
    value, or (for non-integer b') a zero value bounds the domain."""
    integer_b = spec.b_prime.denominator == 1
    x = 0
    while True:
        column = [
            binom(spec.a_prime - 1, y) * binom(spec.b_prime - 1, x - y) for y in range(x + 1)
        ]
        if column[x] <= 0 or any(v < 0 or (v == 0 and not integer_b) for v in column):
            return x
        x += 1


def test_domain_limit_matches_ceiling_formula():
    # a' = p/q, q <= 3, in (1, 6]; b' = p/q, q in {1, 2, 4}, in (1, 5]: 320
    # specs with integer a', integer b' and b' in (1, 2) among them
    a_primes = {F(p, q) for q in (1, 2, 3) for p in range(q + 1, 6 * q + 1)}
    b_primes = {F(p, q) for q in (1, 2, 4) for p in range(q + 1, 5 * q + 1)}
    assert len(a_primes) * len(b_primes) == 320
    for ap in a_primes:
        for bp in b_primes:
            spec = DeltaAB(ap, bp)
            assert domain_limit(spec) == _scanned_delta_domain(spec)


def test_weight_value_outside_domain():
    with pytest.raises(IndexOutOfDomain):
        weight_value(DeltaAB(4, 2), 0, 4)
    with pytest.raises(IndexOutOfDomain):
        weight_value(GammaAB(0, 0), 2, 1)


def test_delta_is_signed_gamma():
    # delta(a',b')[y,x] agrees with (-1)^x * binom(y-a',y) binom(x-y-b',x-y)
    spec = DeltaAB(F(9, 2), F(5, 2))
    for x in range(domain_limit(spec)):
        for y in range(x + 1):
            formal = binom(y - spec.a_prime, y) * binom(x - y - spec.b_prime, x - y)
            assert weight_value(spec, y, x) == (-1) ** x * formal


def test_classify_weight_examples():
    const = Custom(4, {(y, x): F(1) for x in range(4) for y in range(x + 1)})
    flags = classify_weight(const, 4)
    assert (flags.atomic, flags.star_symmetric, flags.strictly_positive) == (True, True, True)
    flags = classify_weight(GammaAB(1, 0), 4)
    assert (flags.atomic, flags.star_symmetric) == (True, False)
    flags = classify_weight(GammaAB(0, 1), 4)
    assert (flags.atomic, flags.star_symmetric) == (False, True)


def test_classify_weight_gamma_grid():
    # atomic iff b = 0, star-symmetric iff a = 0
    values = [F(-1, 2), F(0), F(1, 2), F(1), F(2)]
    for a in values:
        for b in values:
            for n in (3, 4, 5):
                flags = classify_weight(GammaAB(a, b), n)
                assert flags.atomic == (b == 0)
                assert flags.star_symmetric == (a == 0)
                assert flags.strictly_positive


def test_factorize_constant_weight():
    spec = GammaAB(0, 0)
    pi = stationary(transition_matrix(spec, 4))
    result = factorize(spec, 4, pi.weights)
    assert result.valid
    assert result.alpha[0] == weight_value(spec, 0, 0)
    for x in range(4):
        for y in range(x + 1):
            assert result.alpha[y] * result.beta[(y, x)] == weight_value(spec, y, x)


def test_factorize_gamma_c_beta_shape():
    spec = GammaC(1)
    n = 3
    pi = stationary(transition_matrix(spec, n))
    assert pi.weights == [F(1, 9), F(4, 9), F(4, 9)]
    result = factorize(spec, n, pi.weights)
    assert result.valid
    # beta[y,x] proportional to x! (n-1-y)! / (x-y)! * c^(x-y)
    import math

    def reference(y, x):
        return F(math.factorial(x) * math.factorial(n - 1 - y), math.factorial(x - y))

    scale = result.beta[(0, 0)] / reference(0, 0)
    for x in range(n):
        for y in range(x + 1):
            assert result.beta[(y, x)] == scale * reference(y, x)


def test_factorize_delta_family():
    from involute.walk import invariant_closed_form

    spec = DeltaAB(4, 2)
    pi = invariant_closed_form(spec, 4)
    result = factorize(spec, 4, pi.weights)
    assert result.valid
    assert result.alpha[0] == weight_value(spec, 0, 0)


def test_factorize_detects_non_reversible_weight():
    lam = [F(1), F(3, 5), F(3, 10), F(1, 20)]
    spec = custom_from_down_step(binomial_transform(lam))
    pi = stationary(transition_matrix(spec, 4))
    assert not factorize(spec, 4, pi.weights).valid


def test_factorize_requires_positive_pi():
    with pytest.raises(OutOfRange):
        factorize(GammaAB(0, 0), 3, [F(1, 2), F(1, 2), F(0)])


def test_custom_csv_roundtrip():
    text = "y,x,value\n0,0,1\n0,1,1/2\n1,1,3/2\n"
    spec = custom_from_csv(text)
    assert spec.n == 2
    assert weight_value(spec, 0, 1) == F(1, 2)
    assert weight_value(spec, 1, 1) == F(3, 2)
    assert norm(spec, 1) == 2
