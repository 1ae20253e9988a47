"""Closed-form spectra, the eigen-engine on eigenvalue sequences, mixing rates."""

import json
import math
from fractions import Fraction as F

import pytest

from involute import _linalg as la
from involute.cli import main
from involute.errors import IndexOutOfDomain, OutOfRange, RepeatedEigenvalue, UnsupportedFamily
from involute.spectral import (final_left_eigenvector, left_side, right_eigenvectors,
                               signed_eigenvalues)
from involute.exactnum import binom
from involute.transform import lambda_walk
from involute.walk import (MixingReport, _stationary_by_elimination, mixing_report,
                           transition_matrix)
from involute.weights import (Custom, DeltaAB, GammaAB, GammaC, domain_limit, family_sequence,
                              invariant_closed_form)

from oracles import (clear_denominators, matvec, pascal_column, pascal_inverse, pi_inner,
                     stochastic_grid, vecmat)
from test_closed_forms import N_MAX, named_cases

GRID_AB = [F(-1, 2), F(0), F(1, 2), F(1), F(2)]


def test_eigenvalue_examples():
    for spec, expected in ((GammaAB(0, 0), [F(1), F(-1, 2), F(1, 3), F(-1, 4)]),
                           (GammaC(F(1, 2)), [F(1), F(-2, 3), F(4, 9), F(-8, 27)]),
                           (DeltaAB(4, 2), [F(1), F(-3, 4), F(1, 2), F(-1, 4)])):
        assert signed_eigenvalues(family_sequence(spec, 4)) == expected


def test_eigenvalues_match_anti_diagonal():
    for spec in (GammaAB(1, 0), GammaC(2), DeltaAB(5, 3)):
        p = transition_matrix(spec, 4)
        values = signed_eigenvalues(family_sequence(spec, 4))
        assert [abs(values[d]) for d in range(4)] == [p[d][3 - d] for d in range(4)]


def test_charpoly_matches_closed_form_spot():
    for spec, n in ((GammaAB(F(1, 2), F(-1, 2)), 6), (GammaC(3), 5), (DeltaAB(5, 3), 5)):
        p = transition_matrix(spec, n)
        assert la.charpoly(p) == la.poly_from_roots(signed_eigenvalues(family_sequence(spec, n)))


def test_eigenvalues_decreasing_in_abs():
    cases = [(GammaAB(a, b), 12) for a in GRID_AB for b in GRID_AB]
    cases += [(DeltaAB(13, 7), 12), (DeltaAB(F(25, 2), F(11, 2)), 6)]
    for spec, n in cases:
        values = signed_eigenvalues(family_sequence(spec, n))
        mags = [abs(v) for v in values]
        assert all(mags[d] > mags[d + 1] for d in range(n - 1))


def _family_rights(spec, n, dmax=None):
    return right_eigenvectors(family_sequence(spec, n), dmax=dmax)


def _family_left(spec, n, dmax=None):
    return left_side(family_sequence(spec, n), dmax=dmax)


def _primitive_ints(v) -> bool:
    """v is a list of ints without a common factor, first nonzero entry > 0."""
    return (all(type(x) is int for x in v) and math.gcd(*v) == 1
            and next(x for x in v if x) > 0)


def test_right_eigenvector_example():
    rights = _family_rights(GammaAB(0, 0), 4)
    assert rights[0] == [1] * 4
    assert rights[1] == [2, 1, 0, -1]
    assert signed_eigenvalues(family_sequence(GammaAB(0, 0), 4)[:len(rights)]) == [
        F(1), F(-1, 2), F(1, 3), F(-1, 4)]


def test_right_eigenvectors_structure():
    for a in (F(0), F(1, 2), F(2)):
        for b in (F(0), F(1)):
            spec = GammaAB(a, b)
            for n in (3, 5, 6):
                rights = _family_rights(spec, n)
                pi = _family_left(spec, n)[1]
                # pairwise pi-orthogonality, exact
                for d in range(n):
                    for e in range(d + 1, n):
                        assert pi_inner(pi, rights[d], rights[e]) == 0
                # degree-d property: coordinates in the Pascal basis stop at d
                binv = pascal_inverse(n)
                for d, vec in enumerate(rights):
                    coords = matvec(binv, vec)
                    assert all(coords[k] == 0 for k in range(d + 1, n))
                    assert coords[d] != 0
                # second eigenvector is affine with the documented slope
                w1 = rights[1]
                ref = [(a + b + 2) * (n - 1) - (2 * a + b + 3) * x for x in range(n)]
                assert clear_denominators(ref) == w1


def _rational_gram_schmidt(spec, n):
    """Oracle: the Fraction Gram-Schmidt of the Pascal columns under pi."""
    pi = invariant_closed_form(spec, n)
    rights = []
    for d in range(n):
        v = pascal_column(n, d)
        for w in rights:
            coeff = pi_inner(pi, v, w) / pi_inner(pi, w, w)
            v = [a - coeff * b for a, b in zip(v, w)]
        rights.append(clear_denominators(v))
    return rights


def test_right_eigenvectors_match_rational_gram_schmidt():
    cases = 0
    for a in (F(-2, 3), F(0), F(1, 3), F(1), F(5, 2)):
        for b in (F(-1, 2), F(0), F(2, 3), F(3)):
            for n in (1, 2, 3, 6, 9, 14):
                spec = GammaAB(a, b)
                rights = right_eigenvectors(family_sequence(spec, n))
                assert rights == _rational_gram_schmidt(spec, n)
                # vector d needs only the top d + 1 rows of T
                assert right_eigenvectors(family_sequence(spec, n), dmax=2) == rights[:3]
                cases += 1
    assert cases == 120


def test_final_right_eigenvector_a0():
    for b in (0, 1, 2):
        for n in (3, 5, 8):
            spec = GammaAB(0, b)
            rights = right_eigenvectors(family_sequence(spec, n))
            ref = [(-1) ** x * binom(n + b, x + b + 1) for x in range(n)]
            assert clear_denominators(ref) == rights[n - 1]


def _integer_gram_schmidt(spec, n, top):
    """Oracle: pi-weighted Gram-Schmidt of the Pascal columns on integers.

    With pi scaled to integers, v <- <w,w> v - <v,w> w followed by removing
    the content is a positive multiple of the rational step.
    """
    pi_int = la.integer_row(invariant_closed_form(spec, n))[0]
    rights, cache = [], []
    for d in range(top):
        v = [math.comb(x, d) for x in range(n)]
        for w, pw, ww in cache:
            vw = sum(a * b for a, b in zip(v, pw))
            v = la.primitive([ww * a - vw * b for a, b in zip(v, w)])
        if next(x for x in v if x) < 0:
            v = [-x for x in v]
        pw = [p * x for p, x in zip(pi_int, v)]
        cache.append((v, pw, sum(a * b for a, b in zip(pw, v))))
        rights.append(v)
    return rights


def _exact_eigenvector(scaled_rows, value, v):
    """P v == value v exactly, checked on the rows (d * row, d) of P."""
    v = [int(x) for x in v]
    return all(
        value.denominator * sum(a * x for a, x in zip(ints, v)) == value.numerator * den * vx
        for (ints, den), vx in zip(scaled_rows, v)
    )


@pytest.mark.parametrize("spec", [
    GammaAB(F(1), F(1, 3)), GammaAB(F(-1, 2), F(5, 2)),
    GammaC(F(1, 3)), GammaC(F(5, 2)),
    # delta up to its domain edge: non-integer a' and b', then integer b'
    DeltaAB(F(21, 2), F(43, 4)), DeltaAB(F(25, 2), F(11, 2)), DeltaAB(4, 2),
    DeltaAB(13, 7), DeltaAB(F(17, 2), 3), DeltaAB(F(7, 3), 5),
])
def test_right_eigenvectors_are_exact_eigenvectors(spec):
    # the Pascal-basis engine needs only H = B Diag(lambda) B^-1 with distinct
    # signed lambda, which every named family has within its domain
    sizes = [(n, None) for n in (*range(2, 13), 24, 40)] + [(80, 2)]
    for n, dmax in [(n, dmax) for n, dmax in sizes if n <= domain_limit(spec)]:
        rights = _family_rights(spec, n, dmax=dmax)
        top = n if dmax is None else dmax + 1
        eigenvalues = signed_eigenvalues(family_sequence(spec, n))[:top]
        assert len(rights) == top
        assert rights == _integer_gram_schmidt(spec, n, top)
        walk = transition_matrix(spec, n)
        p = [la.integer_row(row) for row in walk]
        lefts = _family_left(spec, n, dmax=dmax)[0]
        assert len(lefts) == top
        for value, v, u in zip(eigenvalues, rights, lefts):
            assert _primitive_ints(v) and _exact_eigenvector(p, value, v)
            assert _primitive_ints(u) and vecmat(u, walk) == [value * x for x in u]
        assert not _exact_eigenvector(p, eigenvalues[1], rights[0])


def test_every_named_walk_has_primitive_int_eigenvectors():
    # both sides, for every named spec the tests use at n <= N_MAX, checked
    # exactly against P: P v = sigma v and u P = sigma u
    for spec, n in named_cases():
        if n > N_MAX:
            continue
        lam = family_sequence(spec, n)
        walk = transition_matrix(spec, n)
        p = [la.integer_row(row) for row in walk]
        lefts, pi = left_side(lam)
        assert pi == invariant_closed_form(spec, n)
        for value, v, u in zip(signed_eigenvalues(lam), right_eigenvectors(lam), lefts):
            assert _primitive_ints(v) and _exact_eigenvector(p, value, v)
            assert _primitive_ints(u) and _exact_left(walk, value, u)


def test_family_left_vectors_are_pi_times_right():
    # a reversible walk has u_x = pi_x v_x up to scale: the transposed solve
    # must agree with the closed-form invariant law
    lefts = _family_left(GammaAB(0, 0), 4)[0]
    assert lefts[:2] == [[1, 2, 3, 4], [1, 1, 0, -2]]
    for spec in (GammaAB(F(1, 2), F(-1, 3)), GammaC(F(5, 2)), DeltaAB(F(21, 2), F(43, 4))):
        for n in range(1, min(12, domain_limit(spec)) + 1):
            rights = _family_rights(spec, n)
            lefts, engine_pi = _family_left(spec, n)
            pi = invariant_closed_form(spec, n)
            assert engine_pi == pi
            assert lefts == [
                clear_denominators([p * x for p, x in zip(pi, v)])
                for v in rights
            ]


def test_final_left_eigenvector_examples():
    assert final_left_eigenvector(3) == [F(1), F(-2), F(1)]
    assert final_left_eigenvector(4) == [F(1), F(-3), F(3), F(-1)]
    p = transition_matrix(GammaAB(0, 0), 3)
    u = final_left_eigenvector(3)
    assert vecmat(u, p) == [F(1, 3) * x for x in u]
    assert signed_eigenvalues(family_sequence(GammaAB(1, 0), 4))[-1] == F(-2, 5)


def test_final_left_eigenvector_over_grid():
    grid = (F(0), F(1, 2), F(1), F(2))
    specs = [GammaAB(a, b) for a in grid for b in grid]
    specs += [GammaC(F(1, 3)), GammaC(2), DeltaAB(13, 7), DeltaAB(F(21, 2), F(43, 4))]
    for spec in specs:
        for n in range(2, min(10, domain_limit(spec)) + 1):
            u = final_left_eigenvector(n)
            p = transition_matrix(spec, n)
            lam = signed_eigenvalues(family_sequence(spec, n))[-1]
            assert vecmat(u, p) == [lam * x for x in u]


def test_left_vectors_are_left_eigenvectors():
    spec = GammaAB(F(1, 2), F(1))
    n = 5
    lefts = _family_left(spec, n)[0]
    p = transition_matrix(spec, n)
    for value, u in zip(signed_eigenvalues(family_sequence(spec, n)), lefts):
        assert vecmat(u, p) == [value * x for x in u]
    # the last left vector is the alternating Pascal row up to scale
    assert lefts[n - 1] == clear_denominators(final_left_eigenvector(n))


def test_second_abs_eigenvalue():
    assert family_sequence(GammaAB(0, 0), 2)[1] == F(1, 2)
    assert family_sequence(GammaAB(F(1, 2), 2), 2)[1] == F(1, 3)
    assert family_sequence(GammaC(1), 2)[1] == F(1, 2)
    assert family_sequence(DeltaAB(4, 2), 2)[1] == F(3, 4)


def test_mixing_report_gamma00():
    report = mixing_report(GammaAB(0, 0), 8)
    assert report.second_abs_eigenvalue == F(1, 2)
    assert abs(report.empirical_rate - 0.5) < 0.025


def _mixing_by_powers(spec, n):
    """Oracle: mixing_report from whole matrix powers P^t, t = 1..40."""
    p = transition_matrix(spec, n)
    pi = invariant_closed_form(spec, n)
    power, norms = p, []
    for _ in range(40):
        norms.append(float(max(abs(power[0][z] / pi[z] - 1) for z in range(n))))
        power = la.matmul(power, p)
    pts = [(t + 1, math.log(v)) for t, v in enumerate(norms) if v > 0 and t + 1 > 20]
    tbar = sum(t for t, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    slope = sum((t - tbar) * (y - ybar) for t, y in pts) / sum((t - tbar) ** 2 for t, _ in pts)
    return MixingReport(family_sequence(spec, n)[1], math.exp(slope))


def test_mixing_report_matches_matrix_powers():
    # n = 2 is the smallest walk that mixes
    for spec, n in ((GammaAB(0, 0), 8), (GammaAB(F(1, 2), 1), 6), (GammaC(F(1, 3)), 7),
                    (DeltaAB(5, 3), 5), (GammaAB(0, 0), 2)):
        assert mixing_report(spec, n) == _mixing_by_powers(spec, n)


@pytest.mark.parametrize("n", [1, 0])
def test_mixing_report_refuses_input_it_cannot_fit(monkeypatch, n):
    monkeypatch.setattr("involute.walk.transition_matrix", None)  # refused before stepping
    with pytest.raises(OutOfRange, match=f"n >= 2, got {n}"):
        mixing_report(GammaAB(0, 0), n)


def test_mixing_report_refuses_a_window_that_underflows():
    # lambda_1 = 1/(1 + c) = 1e-20: every norm past step 16 is 0.0 as a float
    with pytest.raises(OutOfRange, match="two nonzero norms in steps 21..40, got 0"):
        mixing_report(GammaC(10**20), 4)


def test_unsupported_family():
    custom = Custom(2, {(0, 0): F(1), (0, 1): F(1), (1, 1): F(1)})
    with pytest.raises(UnsupportedFamily):
        family_sequence(custom, 2)


def test_eigensystem_rejects_negative_dmax():
    lam = family_sequence(GammaAB(1, 1), 4)
    for solve in (right_eigenvectors, left_side):
        with pytest.raises(OutOfRange, match="dmax >= 0, got -1"):
            solve(lam, dmax=-1)
        with pytest.raises(IndexOutOfDomain, match="at least one eigenvalue"):
            solve([])
    lefts, pi = left_side(lam, dmax=0)
    assert len(right_eigenvectors(lam, dmax=0)) == len(lefts) == 1
    assert pi == invariant_closed_form(GammaAB(1, 1), 4)


def _exact_left(p, value, u):
    return vecmat(u, p) == [value * x for x in u]


def test_eigensystem_of_every_grid_walk():
    # every walk of the grid, reversible or not: each vector checked exactly
    # against P, and pi against exact elimination on (P - I)^T
    solved = refused = vectors = 0
    for n in range(2, 8):
        for lam in stochastic_grid(n, 6):
            p = lambda_walk(lam)
            signed = [(-1) ** d * v for d, v in enumerate(lam)]
            if len(set(signed)) < n:
                for solve in (right_eigenvectors, left_side):
                    with pytest.raises(RepeatedEigenvalue,
                                       match="repeats at d=\\d+ and d'=\\d+"):
                        solve(lam)
                refused += 1
                continue
            rights = right_eigenvectors(lam)
            lefts, pi = left_side(lam)
            assert signed_eigenvalues(lam) == signed
            for value, v, u in zip(signed, rights, lefts):
                assert matvec(p, v) == [value * x for x in v] and _primitive_ints(v)
                assert _exact_left(p, value, u) and _primitive_ints(u)
                vectors += 1
            assert pi == _stationary_by_elimination(p)
            assert lefts[-1] == clear_denominators(final_left_eigenvector(n))
            solved += 1
    assert (solved, refused, vectors) == (146, 109, 539)


def test_dmax_solves_are_prefixes_of_the_whole_solve():
    # the top (dmax + 1)-row block of T and the truncated solve of S give the
    # same first vectors as the whole solve; dmax >= n asks for all of them
    seqs = [lam for n in range(1, 6) for lam in stochastic_grid(n, 4)
            if len(set(signed_eigenvalues(lam))) == n]
    seqs += [list(range(1, 7)), family_sequence(DeltaAB(5, 3), 5)]
    for lam in seqs:
        n = len(lam)
        rights = right_eigenvectors(lam)
        lefts, pi = left_side(lam)
        assert len(rights) == len(lefts) == n
        for dmax in range(n + 2):
            top = min(dmax + 1, n)
            assert right_eigenvectors(lam, dmax) == rights[:top]
            assert left_side(lam, dmax) == (lefts[:top], pi)


def test_repeated_eigenvalue_is_refused_before_solving():
    # the whole sequence is checked, also when dmax asks for vectors before the repeat
    for solve in (right_eigenvectors, left_side):
        for dmax in (None, 0):
            with pytest.raises(RepeatedEigenvalue,
                               match="eigenvalue 0 repeats at d=1 and d'=2"):
                solve([F(1), F(0), F(0)], dmax)


def test_eigensystem_serialization(capsys):
    assert main(["--format", "json", "eigvec", "--gamma", "0", "0", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["n", "eigenvalues", "right_vectors", "left_vectors", "pi"]
    assert payload["eigenvalues"] == ["1", "-1/2", "1/3"]
    assert payload["pi"] == ["1/6", "1/3", "1/2"]
