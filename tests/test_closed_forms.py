"""Family closed forms against independent oracles.

The library reads every family's spectrum from the diagonal of H and its
invariant law from alpha_{x*} N_x.  Here those results are compared with
the per-family formulas as the paper states them, one generalized binomial
per factor, and, for small n, with sympy's eigenvalues and left null
vector of the exact transition matrix.
"""

import math
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy

from involute.continuum import lp_triangular
from involute.errors import IndexOutOfDomain
from involute.exactnum import binom
from involute.spectral import family_sequence, signed_eigenvalues
from involute.walk import invariant_closed_form, subset_walk, transition_matrix
from involute.weights import (DeltaAB, GammaAB, GammaC, atomic_part, domain_limit,
                              down_step_diagonal, norm_table)

N_MAX = 12
SYMPY_N_MAX = 5
GAMMA_AB = [GammaAB(a, b) for a in (F(0), F(1, 2), F(-1, 2), F(1), F(2))
            for b in (F(0), F(1, 3), F(4, 3), F(-2, 3))]
GAMMA_C = [GammaC(F(1, 3)), GammaC(1), GammaC(F(5, 2))]
DELTA = [DeltaAB(ap, bp) for ap in (F(3, 2), F(2), F(7, 2), F(5))
         for bp in (F(5, 4), F(2), F(7, 3), F(4))]
SPECS = GAMMA_AB + GAMMA_C + DELTA


def lambda_by_binom(spec, d):
    if isinstance(spec, GammaAB):
        return binom(spec.a + d, d) / binom(spec.a + spec.b + d + 1, d)
    if isinstance(spec, GammaC):
        return 1 / (spec.c + 1) ** d
    return binom(spec.a_prime - 1, d) / binom(spec.a_prime + spec.b_prime - 2, d)


def pi_by_binom(spec, n):
    """pi_x with its closed-form normalization (Vandermonde, binomial theorem)."""
    if isinstance(spec, GammaAB):
        a, b = spec.a, spec.b
        raw = [binom(n - 1 - x + a, n - 1 - x) * binom(x + a + b + 1, x) for x in range(n)]
        total = binom(n + 2 * a + b + 1, n - 1)
    elif isinstance(spec, GammaC):
        raw = [binom(n - 1, x) * (spec.c + 1) ** x for x in range(n)]
        total = (spec.c + 2) ** (n - 1)
    else:
        ap, bp = spec.a_prime, spec.b_prime
        raw = [binom(ap - 1, n - 1 - x) * binom(ap + bp - 2, x) for x in range(n)]
        total = binom(2 * ap + bp - 3, n - 1)
    return [r / total for r in raw]


def sizes(spec):
    return range(1, min(N_MAX, domain_limit(spec)) + 1)


def test_lambda_matches_binomial_formula():
    for spec in SPECS:
        for n in sizes(spec):
            assert signed_eigenvalues(family_sequence(spec, n)) == [
                (-1) ** d * lambda_by_binom(spec, d) for d in range(n)
            ]


def test_lambda_past_the_delta_domain():
    # down_step_diagonal reads H's diagonal wherever N_d != 0, inside the domain or not
    checked = 0
    for spec in DELTA:
        for d in range(domain_limit(spec), N_MAX):
            try:
                expected = lambda_by_binom(spec, d)
            except ZeroDivisionError:
                continue
            assert down_step_diagonal(spec, d + 1)[d] == expected
            checked += 1
    assert checked > 50


def test_zero_length_sequences_are_empty():
    # the norms are a weight table, so n = 0 is outside the weight's domain
    for spec in (GAMMA_AB[0], GAMMA_C[0], DELTA[0]):
        assert down_step_diagonal(spec, 0) == atomic_part(spec, 0) == []
        with pytest.raises(IndexOutOfDomain, match="n=0 is outside the weight's domain"):
            norm_table(spec, 0)


def test_invariant_matches_binomial_formula():
    for spec in SPECS:
        for n in sizes(spec):
            assert invariant_closed_form(spec, n) == pi_by_binom(spec, n)


def test_final_left_eigenvalue_matches_binomial_formula():
    for spec in GAMMA_AB:
        a, b = spec.a, spec.b
        for n in range(1, N_MAX + 1):
            expected = (-1) ** (n - 1) * binom(n + a - 1, n - 1) / binom(n + a + b, n - 1)
            assert signed_eigenvalues(family_sequence(spec, n))[-1] == expected


def test_lp_triangular_matches_alternating_sums():
    # entry [i][k] = C(k,i) s_i, s_i = sum_j (-1)^(i-j) C(i,j) (b+1)_j/(a+b+2)_j
    dmax = 12
    for a in range(4):
        for b in range(4):
            r = [F(1)]
            for j in range(dmax):
                r.append(r[-1] * F(b + 1 + j, a + b + 2 + j))
            s = [sum((-1) ** (i - j) * math.comb(i, j) * r[j] for j in range(i + 1))
                 for i in range(dmax + 1)]
            assert lp_triangular(a, b, dmax) == [
                [math.comb(k, i) * s[i] for k in range(dmax + 1)] for i in range(dmax + 1)
            ]


def test_subset_walk_matches_p_formulas():
    for p in (F(1, 10), F(1, 3), F(1, 2), F(2, 3), F(9, 10)):
        for m in range(1, 11):
            sub = subset_walk(m, p)
            by_size = [p ** (m - k) / (1 + p) ** m for k in range(m + 1)]
            assert sub.pi == [by_size[bin(s).count("1")] for s in range(2**m)]
            expected = []
            for e in range(m + 1):
                expected.extend([(-p) ** e] * math.comb(m, e))
            assert sub.eigenvalues == expected


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in rows])


def _as_fraction(v):
    v = sympy.Rational(v)
    return F(int(v.p), int(v.q))


def test_sympy_eigenvalues_and_left_null_vector():
    for spec in SPECS:
        for n in range(1, min(SYMPY_N_MAX, domain_limit(spec)) + 1):
            p = _sympy_matrix(transition_matrix(spec, n))
            found = Counter({_as_fraction(v): k for v, k in p.eigenvals().items()})
            assert found == Counter(signed_eigenvalues(family_sequence(spec, n)))
            (null,) = (p.T - sympy.eye(n)).nullspace()
            total = sum(null)
            assert [_as_fraction(v / total) for v in null] == (
                invariant_closed_form(spec, n)
            )
