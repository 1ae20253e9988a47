"""Closed-form spectra, pi-orthogonal eigenvectors, mixing rates."""

import math
from fractions import Fraction as F

import pytest

from involute import _linalg as la
from involute.errors import UnsupportedFamily
from involute.spectral import (
    EigenSystem,
    MixingReport,
    eigenvalues_closed_form,
    family_lambda,
    final_left_eigenvalue,
    final_left_eigenvector,
    left_from_right,
    mixing_report,
    right_eigenvectors,
)
from involute.exactnum import binom
from involute.transform import pascal, pascal_column
from involute.walk import invariant_closed_form, transition_matrix
from involute.weights import Custom, DeltaAB, GammaAB, GammaC

from oracles import pi_inner

GRID_AB = [F(-1, 2), F(0), F(1, 2), F(1), F(2)]


def test_eigenvalue_examples():
    assert eigenvalues_closed_form(GammaAB(0, 0), 4) == [F(1), F(-1, 2), F(1, 3), F(-1, 4)]
    assert eigenvalues_closed_form(GammaC(F(1, 2)), 4) == [F(1), F(-2, 3), F(4, 9), F(-8, 27)]
    assert eigenvalues_closed_form(DeltaAB(4, 2), 4) == [F(1), F(-3, 4), F(1, 2), F(-1, 4)]


def test_eigenvalues_match_anti_diagonal():
    for spec in (GammaAB(1, 0), GammaC(2), DeltaAB(5, 3)):
        w = transition_matrix(spec, 4)
        values = eigenvalues_closed_form(spec, 4)
        assert [abs(values[d]) for d in range(4)] == [w.P[d][3 - d] for d in range(4)]


def test_charpoly_matches_closed_form_spot():
    for spec, n in ((GammaAB(F(1, 2), F(-1, 2)), 6), (GammaC(3), 5), (DeltaAB(5, 3), 5)):
        w = transition_matrix(spec, n)
        assert la.charpoly(w.P) == la.poly_from_roots(eigenvalues_closed_form(spec, n))


def test_eigenvalues_decreasing_in_abs():
    cases = [(GammaAB(a, b), 12) for a in GRID_AB for b in GRID_AB]
    cases += [(DeltaAB(13, 7), 12), (DeltaAB(F(25, 2), F(11, 2)), 6)]
    for spec, n in cases:
        values = eigenvalues_closed_form(spec, n)
        mags = [abs(v) for v in values]
        assert all(mags[d] > mags[d + 1] for d in range(n - 1))


def test_right_eigenvector_example():
    system = right_eigenvectors(GammaAB(0, 0), 4)
    assert system.right_vectors[0] == [F(1)] * 4
    assert system.right_vectors[1] == [F(2), F(1), F(0), F(-1)]
    assert system.eigenvalues == [F(1), F(-1, 2), F(1, 3), F(-1, 4)]


def test_right_eigenvectors_structure():
    for a in (F(0), F(1, 2), F(2)):
        for b in (F(0), F(1)):
            spec = GammaAB(a, b)
            for n in (3, 5, 6):
                system = right_eigenvectors(spec, n)
                # pairwise pi-orthogonality, exact
                for d in range(n):
                    for e in range(d + 1, n):
                        assert (
                            pi_inner(system.pi, system.right_vectors[d], system.right_vectors[e])
                            == 0
                        )
                # degree-d property: coordinates in the Pascal basis stop at d
                binv = pascal(n).inverse
                for d, vec in enumerate(system.right_vectors):
                    coords = la.matvec(binv, vec)
                    assert all(coords[k] == 0 for k in range(d + 1, n))
                    assert coords[d] != 0
                # second eigenvector is affine with the documented slope
                w1 = system.right_vectors[1]
                ref = [(a + b + 2) * (n - 1) - (2 * a + b + 3) * x for x in range(n)]
                assert la.clear_denominators(ref) == w1


def _rational_gram_schmidt(spec, n):
    """Oracle: the Fraction Gram-Schmidt of the Pascal columns under pi."""
    pi = invariant_closed_form(spec, n)
    rights = []
    for d in range(n):
        v = pascal_column(n, d)
        for w in rights:
            coeff = pi_inner(pi, v, w) / pi_inner(pi, w, w)
            v = [a - coeff * b for a, b in zip(v, w)]
        rights.append(la.clear_denominators(v))
    return rights


def test_right_eigenvectors_match_rational_gram_schmidt():
    cases = 0
    for a in (F(-2, 3), F(0), F(1, 3), F(1), F(5, 2)):
        for b in (F(-1, 2), F(0), F(2, 3), F(3)):
            for n in (1, 2, 3, 6, 9, 14):
                spec = GammaAB(a, b)
                system = right_eigenvectors(spec, n)
                assert system.right_vectors == _rational_gram_schmidt(spec, n)
                assert right_eigenvectors(spec, n, dmax=2).right_vectors == system.right_vectors[:3]
                cases += 1
    assert cases == 120


def test_final_right_eigenvector_a0():
    for b in (0, 1, 2):
        for n in (3, 5, 8):
            spec = GammaAB(0, b)
            system = right_eigenvectors(spec, n)
            ref = [(-1) ** x * binom(n + b, x + b + 1) for x in range(n)]
            assert la.clear_denominators(ref) == system.right_vectors[n - 1]


def _integer_gram_schmidt(spec, n, top):
    """Oracle: pi-weighted Gram-Schmidt of the Pascal columns on integers.

    With pi scaled to integers, v <- <w,w> v - <v,w> w followed by removing
    the content is a positive multiple of the rational step.
    """
    pi_int = la.integer_row(invariant_closed_form(spec, n).weights)[0]
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
        rights.append([F(x) for x in v])
    return rights


def _exact_eigenvector(scaled_rows, value, v):
    """P v == value v exactly, checked on the rows (d * row, d) of P."""
    v = [int(x) for x in v]
    return all(
        value.denominator * sum(a * x for a, x in zip(ints, v)) == value.numerator * den * vx
        for (ints, den), vx in zip(scaled_rows, v)
    )


@pytest.mark.parametrize("spec", [GammaAB(F(1), F(1, 3)), GammaAB(F(-1, 2), F(5, 2))])
def test_right_eigenvectors_are_exact_eigenvectors(spec):
    for n, dmax in ((24, None), (40, None), (80, 2)):
        system = right_eigenvectors(spec, n, dmax=dmax)
        top = n if dmax is None else dmax + 1
        assert len(system.right_vectors) == len(system.eigenvalues) == top
        assert system.right_vectors == _integer_gram_schmidt(spec, n, top)
        p = [la.integer_row(row) for row in transition_matrix(spec, n).P]
        for value, v in zip(system.eigenvalues, system.right_vectors):
            assert any(v) and _exact_eigenvector(p, value, v)
        assert not _exact_eigenvector(p, system.eigenvalues[1], system.right_vectors[0])


def test_left_from_right():
    pi = invariant_closed_form(GammaAB(0, 0), 4)
    assert left_from_right(pi, [F(1)] * 4) == [F(1), F(2), F(3), F(4)]
    u = left_from_right(pi, [F(2), F(1), F(0), F(-1)])
    assert u == [F(1), F(1), F(0), F(-2)]
    p = transition_matrix(GammaAB(0, 0), 4).P
    assert la.vecmat(u, p) == [F(-1, 2) * x for x in u]


def test_final_left_eigenvector_examples():
    assert final_left_eigenvector(3) == [F(1), F(-2), F(1)]
    assert final_left_eigenvector(4) == [F(1), F(-3), F(3), F(-1)]
    p = transition_matrix(GammaAB(0, 0), 3).P
    u = final_left_eigenvector(3)
    assert la.vecmat(u, p) == [F(1, 3) * x for x in u]
    assert final_left_eigenvalue(GammaAB(1, 0), 4) == F(-2, 5)


def test_final_left_eigenvector_over_grid():
    for a in (F(0), F(1, 2), F(1), F(2)):
        for b in (F(0), F(1, 2), F(1), F(2)):
            spec = GammaAB(a, b)
            for n in range(2, 11):
                u = final_left_eigenvector(n)
                p = transition_matrix(spec, n).P
                lam = final_left_eigenvalue(spec, n)
                assert la.vecmat(u, p) == [lam * x for x in u]


def test_left_vectors_are_left_eigenvectors():
    spec = GammaAB(F(1, 2), F(1))
    n = 5
    system = right_eigenvectors(spec, n)
    p = transition_matrix(spec, n).P
    for value, u in zip(system.eigenvalues, system.left_vectors):
        assert la.vecmat(u, p) == [value * x for x in u]
    # the last left vector is the alternating Pascal row up to scale
    assert system.left_vectors[n - 1] == la.clear_denominators(final_left_eigenvector(n))


def test_second_abs_eigenvalue():
    assert family_lambda(GammaAB(0, 0), 1) == F(1, 2)
    assert family_lambda(GammaAB(F(1, 2), 2), 1) == F(1, 3)
    assert family_lambda(GammaC(1), 1) == F(1, 2)
    assert family_lambda(DeltaAB(4, 2), 1) == F(3, 4)


def test_mixing_report_gamma00():
    report = mixing_report(GammaAB(0, 0), 8)
    assert report.second_abs_eigenvalue == F(1, 2)
    assert abs(report.empirical_rate - 0.5) < 0.025


def _mixing_by_powers(spec, n, t_max, x0):
    """Oracle: mixing_report from whole matrix powers P^t."""
    p = transition_matrix(spec, n).P
    pi = invariant_closed_form(spec, n)
    power, norms = p, []
    for _ in range(t_max):
        norms.append(float(max(abs(power[x0][z] / pi[z] - 1) for z in range(n))))
        power = la.matmul(power, p)
    lo = t_max // 2
    pts = [(t + 1, math.log(v)) for t, v in enumerate(norms) if v > 0 and t + 1 > lo]
    tbar = sum(t for t, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    slope = sum((t - tbar) * (y - ybar) for t, y in pts) / sum((t - tbar) ** 2 for t, _ in pts)
    return MixingReport(family_lambda(spec, 1), math.exp(slope))


def test_mixing_report_matches_matrix_powers():
    for spec, n, t_max, x0 in ((GammaAB(0, 0), 8, 40, 0), (GammaAB(F(1, 2), 1), 6, 12, 3),
                               (GammaC(F(1, 3)), 7, 20, 6), (DeltaAB(5, 3), 5, 16, 1)):
        assert mixing_report(spec, n, t_max, x0) == _mixing_by_powers(spec, n, t_max, x0)


def test_unsupported_family():
    custom = Custom(2, {(0, 0): F(1), (0, 1): F(1), (1, 1): F(1)})
    with pytest.raises(UnsupportedFamily):
        eigenvalues_closed_form(custom, 2)
    with pytest.raises(UnsupportedFamily):
        right_eigenvectors(GammaC(1), 3)


def test_eigensystem_serialization():
    system = right_eigenvectors(GammaAB(0, 0), 3)
    payload = system.to_dict()
    assert payload["eigenvalues"] == ["1", "-1/2", "1/3"]
    assert payload["pi"] == ["1/6", "1/3", "1/2"]
    assert isinstance(system, EigenSystem)
