"""Family closed forms against independent oracles.

The library reads every family's spectrum from the diagonal of H and its
invariant law from alpha_{x*} N_x.  Here those results are compared with
the per-family formulas as the paper states them, one generalized binomial
per factor, and, for small n, with sympy's eigenvalues and left null
vector of the exact transition matrix.
"""

import json
import math
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy

from involute._linalg import integer_row
from involute.cli import main
from involute.errors import IndexOutOfDomain
from involute.exactnum import binom
from involute.spectral import right_eigenvectors, signed_eigenvalues
from involute.transform import _difference_rows, lambda_walk
from involute.walk import stationary, subset_walk, transition_matrix
from involute.weights import (DeltaAB, GammaAB, GammaC, domain_limit, family_sequence,
                              invariant_closed_form)

from oracles import (atomic_part, closed_form_pi_norms, closed_form_right_eigenvectors,
                     invariant_by_atomic_part, lp_triangular, matvec, norm_table, rising)

N_MAX = 12
SYMPY_N_MAX = 5
GAMMA_AB = [GammaAB(a, b) for a in (F(0), F(1, 2), F(-1, 2), F(1), F(2))
            for b in (F(0), F(1, 3), F(4, 3), F(-2, 3))]
GAMMA_C = [GammaC(F(1, 3)), GammaC(1), GammaC(F(5, 2))]
DELTA = [DeltaAB(ap, bp) for ap in (F(3, 2), F(2), F(7, 2), F(5))
         for bp in (F(5, 4), F(2), F(7, 3), F(4))]
SPECS = GAMMA_AB + GAMMA_C + DELTA
# the named specs and grids the other test modules use, SPECS aside
OTHER_SPECS = (
    [GammaAB(a, b) for a in (F(-1, 2), F(0), F(1, 2), F(1), F(2))
     for b in (F(-1, 2), F(0), F(1, 2), F(1), F(2))]
    + [GammaAB(a, b) for a in (F(-2, 3), F(0), F(1, 3), F(1), F(5, 2))
       for b in (F(-1, 2), F(0), F(2, 3), F(3))]
    + [GammaAB(a, b) for a in (F(0), F(1, 2), F(2)) for b in (F(0), F(1, 3), F(3, 2))]
    + [GammaAB(*ab) for ab in ((F(-1, 3), F(1, 2)), (F(-1, 3), 2), (1, F(-1, 2)),
                               (F(-1, 2), F(-1, 3)), (F(-1, 2), F(5, 2)), (F(1, 2), F(-1, 3)),
                               (F(1, 2), F(2, 3)), (1, F(2, 3)), (2, F(2, 3)), (2, 1))]
    + [GammaC(c) for c in (F(1, 2), 2, 3, F(3, 2), 10**20)]
    + [DeltaAB(*ab) for ab in ((4, 2), (5, 3), (F(7, 2), F(5, 2)), (13, 7), (F(25, 2), F(11, 2)),
                               (F(21, 2), F(43, 4)), (F(17, 2), 3), (F(7, 3), 5), (F(81, 2), 3),
                               (9, 4), (17, 9), (F(9, 2), F(7, 2)))])
# every delta(a', b') with half-integer a', b' in 3/2..6
HALF_DELTA = [DeltaAB(F(p, 2), F(q, 2)) for p in range(3, 13) for q in range(3, 13)]
# the family specs of the bench's stationary jobs, at the sizes those jobs run
BENCH_STATIONARY = (
    [(GammaAB(a, b), 30) for a in (1, 2) for b in (F(1, 3), F(2, 3), F(4, 3))]
    + [(GammaC(c), 40) for c in (F(1, 3), F(1, 2), F(3, 2), 2)]
    + [(DeltaAB(a, b), 10) for a in (F(21, 2), F(31, 3), F(32, 3))
       for b in (F(21, 2), F(41, 4), F(43, 4))])


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


def test_zero_length_sequences_are_empty():
    # lambda and the norms are checked like a weight table, so n = 0 is
    # outside the weight's domain
    for spec in (GAMMA_AB[0], GAMMA_C[0], DELTA[0]):
        assert atomic_part(spec, 0) == []
        for refused in (family_sequence, norm_table):
            with pytest.raises(IndexOutOfDomain, match="n=0 is outside the weight's domain"):
                refused(spec, 0)


def test_invariant_matches_binomial_formula():
    for spec in SPECS:
        for n in sizes(spec):
            assert invariant_closed_form(spec, n) == pi_by_binom(spec, n)


def named_cases() -> list:
    """(spec, n) for every named spec the tests use, and every delta of
    HALF_DELTA, at each n <= N_MAX in its domain; then the bench's specs at
    the sizes of its stationary jobs."""
    named = dict.fromkeys(SPECS + OTHER_SPECS + HALF_DELTA)
    return [(spec, n) for spec in named for n in sizes(spec)] + BENCH_STATIONARY


def test_invariant_is_the_atomic_part_times_the_norms():
    # the integer sum over one lcm against alpha_{x*} N_x in Fractions
    for spec, n in named_cases():
        assert invariant_closed_form(spec, n) == invariant_by_atomic_part(spec, n)


def _source(spec) -> tuple:
    """The CLI flags that name a named spec."""
    if isinstance(spec, GammaAB):
        return ("--gamma", str(spec.a), str(spec.b))
    if isinstance(spec, GammaC):
        return ("--gammac", str(spec.c))
    return ("--delta", str(spec.a_prime), str(spec.b_prime))


def test_stationary_prints_the_law_solved_on_the_walk(capsys):
    # the command prints the closed form; the oracle solves P's potentials
    for spec, n in named_cases():
        pi = [str(v) for v in stationary(transition_matrix(spec, n))]
        argv = ["stationary", *_source(spec), "--n", str(n)]
        for fmt, text in (("pretty", "  ".join(pi)), ("csv", ",".join(pi)),
                          ("json", json.dumps({"pi": pi}))):
            assert main(["--format", fmt, *argv]) == 0
            assert capsys.readouterr() == (text + "\n", "")


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


def test_right_eigenvectors_are_hahn_and_krawtchouk():
    # v_d scaled to v_d(0) = 1 is the 3F2 (gamma(a, b), delta) or the 2F1
    # (gamma(c)) of the oracle, for every d, and its pi-norm is the
    # closed-form Hahn or Krawtchouk norm
    named = dict.fromkeys(SPECS + OTHER_SPECS + HALF_DELTA + [s for s, _ in BENCH_STATIONARY])
    cases = Counter()
    for spec in named:
        for n in (3, 6, 11, 20):
            if n > domain_limit(spec):
                continue
            closed = closed_form_right_eigenvectors(spec, n)
            rights = right_eigenvectors(family_sequence(spec, n))
            assert [[F(x, v[0]) for x in v] for v in rights] == closed
            pi = invariant_closed_form(spec, n)
            norms = [sum(p * x * x for p, x in zip(pi, v)) for v in closed]
            assert norms == closed_form_pi_norms(spec, n)
            cases[type(spec)] += 1
    assert cases == {GammaAB: 264, GammaC: 32, DeltaAB: 130}


def forward_closed_forms(spec, n: int) -> tuple:
    """(D, P, pi) of a named family walk by its product formulas: D[y][k] =
    D_k(y), the rows of P, and pi up to a factor.

    gamma(a, b) and delta(a', b') have lambda_d = (A)_d/(C)_d, with A = a+1
    and C = a+b+2, or A = 1-a' and C = 2-a'-b'.  Then
    D_k(y) = (A)_y (C-A)_k/(C)_{y+k} and pi_x ∝ C(n-1, x) (A)_{n-1-x} (C)_x.
    With y = n-1-z and k = x+z-(n-1) = x-y, P[x][z] = C(x, y) D_k(y) =
    C(x, y) (A)_y (C-A)_k/(C)_x.  gamma(c) is the limit C -> oo with
    A/C = mu = 1/(c+1): D_k(y) = mu^y (1-mu)^k and pi_x ∝ C(n-1, x) (c+1)^x.
    """
    if isinstance(spec, GammaC):
        mu = 1 / (spec.c + 1)

        def difference(y, k):
            return mu**y * (1 - mu) ** k

        pi = [math.comb(n - 1, x) * (spec.c + 1) ** x for x in range(n)]
    else:
        if isinstance(spec, GammaAB):
            a, c = spec.a + 1, spec.a + spec.b + 2
        else:
            a, c = 1 - spec.a_prime, 2 - spec.a_prime - spec.b_prime

        def difference(y, k):
            return rising(a, y) * rising(c - a, k) / rising(c, y + k)

        pi = [math.comb(n - 1, x) * rising(a, n - 1 - x) * rising(c, x) for x in range(n)]
    table = [[difference(y, k) for k in range(n - y)] for y in range(n)]
    rows = [[math.comb(x, n - 1 - z) * difference(n - 1 - z, x + z - (n - 1))
             if x + z >= n - 1 else 0 for z in range(n)] for x in range(n)]
    return table, rows, pi


def test_family_walks_from_a_and_c():
    # the forward theorem for every n: with M[x][z] = P[x][z]/C(x, y), the
    # ratio M[x][z]/M[z][x] = phi(z)/phi(x), phi(u) = (A)_{n-1-u} (C)_u, is a
    # gradient, so detailed balance holds wherever the entries are nonzero;
    # here the three product formulas meet the library's table, P and pi
    named = dict.fromkeys(SPECS + OTHER_SPECS + HALF_DELTA + [s for s, _ in BENCH_STATIONARY])
    cases = Counter()
    for spec in named:
        for n in (3, 6, 10):
            if n > domain_limit(spec):
                continue
            table, rows, pi = forward_closed_forms(spec, n)
            scaled, scale = integer_row(family_sequence(spec, n))
            assert list(_difference_rows(scaled)) == [
                [scale * v for v in table[y]] for y in reversed(range(n))]
            assert transition_matrix(spec, n) == rows
            assert stationary(rows) == [v / sum(pi) for v in pi]
            cases[type(spec)] += 1
    assert cases == {GammaAB: 198, GammaC: 24, DeltaAB: 129}


def test_flip_walk_from_a_equal_to_c():
    # J(n), lambda = (1, ..., 1), is A = C: C-A = 0 leaves D_k(y) = [k = 0], P
    # is the anti-identity and the walk is reducible, so every pi_x ∝
    # C(n-1, x) (A)_{n-1-x} (A)_x is an invariant law, but not the only one
    for n in (3, 6, 10):
        assert list(_difference_rows([1] * n)) == [[1] + [0] * (n - 1 - y)
                                                  for y in reversed(range(n))]
        assert lambda_walk([F(1)] * n) == [[int(x + z == n - 1) for z in range(n)]
                                           for x in range(n)]
        for a in (F(1), F(1, 3), F(5, 2)):
            pi = [math.comb(n - 1, x) * rising(a, n - 1 - x) * rising(a, x) for x in range(n)]
            assert pi == pi[::-1] and matvec(lambda_walk([F(1)] * n), pi) == pi


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
