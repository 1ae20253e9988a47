"""Weight families: values, norms, domains, classification, factorization."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involute import weights
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
    ac_sequence,
    custom_from_csv,
    domain_limit,
    down_step_table,
    family_sequence,
    invariant_closed_form,
)

from oracles import (NAMED_SPECS, atomic_part, classify_weight, custom_from_down_step, factorize,
                     norm_table, spec_from_flags, weight_value)


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
    assert norm_table(GammaAB(0, 0), 4)[3] == 4
    assert norm_table(GammaC(1), 4)[3] == 8
    assert norm_table(DeltaAB(4, 2), 3)[2] == 6


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
            assert norm_table(spec, x + 1)[x] == direct


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
def test_norms_match_their_prefixes_and_closed_forms(spec, data):
    limit = domain_limit(spec)
    n = data.draw(st.integers(min_value=1, max_value=14 if limit == UNBOUNDED else limit))
    norms = norm_table(spec, n)
    assert norms == [norm_table(spec, x + 1)[x] for x in range(n)]
    assert norms == [_closed_norm(spec, x) for x in range(n)]


def test_custom_norms_and_domain():
    spec = Custom(3, {(0, 0): F(1), (0, 1): F(2), (1, 1): F(1, 2), (2, 2): F(3)})
    assert norm_table(spec, 3) == [1, F(5, 2), 3]
    with pytest.raises(IndexOutOfDomain):
        norm_table(spec, 4)


def test_one_domain_check_for_every_caller():
    # down_step_table builds custom tables only; a named family's walk is
    # built from its eigenvalue sequence
    named = (transition_matrix, invariant_closed_form, family_sequence)
    custom = (down_step_table, transition_matrix)
    cases = [(DeltaAB(4, 2), (0, -1, 5), named), (GammaC(2), (0, -1), named),
             (Custom(2, {(0, 0): F(1), (1, 1): F(1)}), (0, 3), custom)]
    for spec, sizes, builds in cases:
        for n in sizes:
            for build in builds:
                with pytest.raises(IndexOutOfDomain, match=f"n={n} is outside the weight's"):
                    build(spec, n)


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


def _edge_specs() -> list:
    """(spec, n) for named families down to a, b, c near their bounds and
    a' just above n - 1, n the domain limit or 40."""
    values = [F(-99, 100), F(-1, 2), F(-1, 3), F(0), F(1, 7), F(1), F(5, 2), F(9)]
    specs = [GammaAB(a, b) for a in values for b in values]
    specs += [GammaC(c) for c in values if c > 0] + [GammaC(F(1, 100))]
    primes = [F(101, 100), F(8, 7), F(3, 2), F(2), F(7, 3), F(3), F(9), F(25, 2), F(39, 2)]
    specs += [DeltaAB(ap, bp) for ap in primes for bp in primes]
    return [(spec, min(40, domain_limit(spec))) for spec in specs]


def test_norms_are_positive_on_every_domain():
    # a named family's walk divides each entry by L, the lcm of the
    # denominators of its reduced lambda pairs, without testing it: every
    # named family keeps those, and its lambda_d, positive on its domain, so
    # L > 0 is the one divisor besides the 1 of the zeros; a family that
    # breaks this fails here
    for spec, n in _edge_specs():
        pairs = family_sequence(spec, n, lambda p, q: (p, q))
        assert len(pairs) == n and all(p > 0 and q > 0 for p, q in pairs), spec
        divisors = set()
        transition_matrix(spec, n, lambda num, den: divisors.add(den))
        assert divisors == {1, math.lcm(*(q for _, q in pairs))}, spec


def _sequence_cases() -> list:
    """(spec, n) over the named specs of the CLI tests, n up to 12 inside
    the domain, and the edge grid above."""
    return [(spec, n) for spec in map(spec_from_flags, NAMED_SPECS)
            for n in range(1, min(12, domain_limit(spec)) + 1)] + _edge_specs()


def test_every_term_ratio_has_a_positive_denominator():
    # every pair the sequences hand out has den > 0 on each n the domain
    # admits: `ac_sequence` by its one sign of C, which delta's A+k < 0 and
    # C+k < 0 need, and gamma(c)'s mu^d as a power of c+1 > 0
    denominators = []
    for spec, n in _sequence_cases():
        pairs = family_sequence(spec, n, lambda p, q: (p, q))
        if not isinstance(spec, GammaC):
            pairs += ac_sequence(*weights._ac(spec), n)
        denominators += [q for _, q in pairs]
    assert len(denominators) > 4_000 and min(denominators) > 0


def test_rising_factorials_are_reduced_products():
    # (r)_k = prod_{i<k} (p + i q) / q^k is in lowest terms: each factor is
    # p modulo q; the grid has the negative r of delta's A = 1-a' and C =
    # 2-a'-b', and the non-positive integers where a product reaches 0
    grid = {F(p, q) for q in (1, 2, 3, 7, 10) for p in range(-25, 26)}
    for r in grid:
        pairs = weights._rising(r, 9)
        products = [math.prod((r + i for i in range(k)), start=F(1)) for k in range(9)]
        assert pairs == [f.as_integer_ratio() for f in products], r
        assert all(q > 0 for _, q in pairs)
    assert weights._rising(F(-7, 3), 1) == [(1, 1)]


def test_gamma_c_powers_are_reduced():
    # mu^d = q^d / (p+q)^d and (1+c)^x = (p+q)^x / q^x, c = p/q, in lowest
    # terms as they stand, so no gcd reduces them
    for c in (F(1, 100), F(1, 3), F(1, 2), F(1), F(3, 2), F(9), F(7, 11), F(1, 10**40)):
        mu = 1 / (c + 1)
        pairs = family_sequence(GammaC(c), 12, lambda p, q: (p, q))
        assert pairs == [(mu**d).as_integer_ratio() for d in range(12)], c
        assert [(e, d) for d, e in pairs] == [((1 + c) ** x).as_integer_ratio() for x in range(12)]


class _CountingMath:
    """`math` with its gcd calls counted."""

    def __init__(self):
        self.gcds = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, *args):
        self.gcds += 1
        return math.gcd(*args)


def test_only_the_eigenvalue_quotient_pays_a_gcd(monkeypatch):
    # the rising factorials and the powers of mu are reduced by
    # construction, so gamma(c)'s sequence and every stationary law make no
    # gcd call in weights, and an (A, C) sequence makes one per term past
    # lambda_0; `fractions` keeps its own `math`, so a Fraction's gcd is not
    # counted
    counting = _CountingMath()
    monkeypatch.setattr(weights, "math", counting)
    for spec, n in _sequence_cases():
        counting.gcds = 0
        family_sequence(spec, n)
        assert counting.gcds == (0 if isinstance(spec, GammaC) else n - 1), (spec, n)
        counting.gcds = 0
        invariant_closed_form(spec, n)
        assert counting.gcds == 0, (spec, n)


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
    alpha, beta, valid = factorize(spec, 4, pi)
    assert valid
    assert alpha == atomic_part(spec, 4)
    assert alpha[0] == weight_value(spec, 0, 0)
    for x in range(4):
        for y in range(x + 1):
            assert alpha[y] * beta[(y, x)] == weight_value(spec, y, x)


def test_factorize_gamma_c_beta_shape():
    spec = GammaC(1)
    n = 3
    pi = stationary(transition_matrix(spec, n))
    assert pi == [F(1, 9), F(4, 9), F(4, 9)]
    alpha, beta, valid = factorize(spec, n, pi)
    assert valid
    assert alpha == atomic_part(spec, n)
    # beta[y,x] proportional to x! (n-1-y)! / (x-y)! * c^(x-y)

    def reference(y, x):
        return F(math.factorial(x) * math.factorial(n - 1 - y), math.factorial(x - y))

    scale = beta[(0, 0)] / reference(0, 0)
    for x in range(n):
        for y in range(x + 1):
            assert beta[(y, x)] == scale * reference(y, x)


def test_factorize_delta_family():
    spec = DeltaAB(4, 2)
    pi = invariant_closed_form(spec, 4)
    alpha, _, valid = factorize(spec, 4, pi)
    assert valid
    assert alpha == atomic_part(spec, 4)
    assert alpha[0] == weight_value(spec, 0, 0)


def test_factorize_detects_non_reversible_weight():
    lam = [F(1), F(3, 5), F(3, 10), F(1, 20)]
    spec = custom_from_down_step(binomial_transform(lam))
    pi = stationary(transition_matrix(spec, 4))
    assert not factorize(spec, 4, pi)[2]


def test_factorize_requires_positive_pi():
    with pytest.raises(OutOfRange):
        factorize(GammaAB(0, 0), 3, [F(1, 2), F(1, 2), F(0)])


def test_custom_csv_roundtrip():
    text = "y,x,value\n0,0,1\n0,1,1/2\n1,1,3/2\n"
    spec = custom_from_csv(text)
    assert spec.n == 2
    assert weight_value(spec, 0, 1) == F(1, 2)
    assert weight_value(spec, 1, 1) == F(3, 2)
    assert norm_table(spec, 2)[1] == 2
