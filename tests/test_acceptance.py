"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s`); tolerances are
pinned here and nowhere else.  Everything discrete is exact equality over
rationals; the continuum criteria carry explicit float tolerances.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F

from involute import _linalg as la
from involute.classify import (
    NotClassified,
    classify_walk,
    conjecture_search,
    params_from_mu_nu,
)
from involute.continuum import (
    convergence_table,
    eigen_residuals,
    fixed_point_residual,
    kappa_walk,
    trig_walk,
)
from involute.spectral import (
    final_left_eigenvector,
    left_side,
    right_eigenvectors,
    signed_eigenvalues,
)
from involute.transform import (
    binomial_transform_witness,
    check_conjugator,
    gadep_counterexample,
    gadep_witness,
    is_stochastic,
)
from involute.walk import (
    mixing_report,
    stationary,
    subset_matrix,
    subset_walk,
    transition_matrix,
)
from involute.weights import (UNBOUNDED, DeltaAB, GammaAB, GammaC, domain_limit, family_sequence,
                              invariant_closed_form)

from oracles import (detailed_balance, matvec, pascal_inverse, pascal_matrix, pi_inner,
                     two_step, vecmat)
from test_transform import down_step, random_stochastic_lambda

GRID_AB = [F(-1, 2), F(0), F(1, 2), F(1), F(2)]
GRID_C = [F(1, 2), F(1), F(2)]
GRID_DELTA = [DeltaAB(4, 2), DeltaAB(5, 3), DeltaAB(F(7, 2), F(5, 2))]


def standard_specs():
    specs = [GammaAB(a, b) for a in GRID_AB for b in GRID_AB]
    specs += [GammaC(c) for c in GRID_C]
    specs += GRID_DELTA
    return specs


def sizes_for(spec, lo, hi):
    limit = domain_limit(spec)
    top = hi if limit == UNBOUNDED else min(hi, int(limit))
    return range(lo, top + 1)


@contextmanager
def report(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {description}")


def test_criterion_01_reference_matrices():
    with report(1, "six 4x4 reference transition matrices, exact"):
        expected = {
            "gamma(0,0)": (GammaAB(0, 0), [["0", "0", "0", "1"],
                                           ["0", "0", "1/2", "1/2"],
                                           ["0", "1/3", "1/3", "1/3"],
                                           ["1/4", "1/4", "1/4", "1/4"]]),
            "gamma(1,0)": (GammaAB(1, 0), [["0", "0", "0", "1"],
                                           ["0", "0", "2/3", "1/3"],
                                           ["0", "1/2", "1/3", "1/6"],
                                           ["2/5", "3/10", "1/5", "1/10"]]),
            "gamma(0,1)": (GammaAB(0, 1), [["0", "0", "0", "1"],
                                           ["0", "0", "1/3", "2/3"],
                                           ["0", "1/6", "1/3", "1/2"],
                                           ["1/10", "1/5", "3/10", "2/5"]]),
            "gamma(1/2)": (GammaC(F(1, 2)), [["0", "0", "0", "1"],
                                             ["0", "0", "2/3", "1/3"],
                                             ["0", "4/9", "4/9", "1/9"],
                                             ["8/27", "4/9", "2/9", "1/27"]]),
            "gamma(2)": (GammaC(2), [["0", "0", "0", "1"],
                                     ["0", "0", "1/3", "2/3"],
                                     ["0", "1/9", "4/9", "4/9"],
                                     ["1/27", "2/9", "4/9", "8/27"]]),
            "delta(4,2)": (DeltaAB(4, 2), [["0", "0", "0", "1"],
                                           ["0", "0", "3/4", "1/4"],
                                           ["0", "1/2", "1/2", "0"],
                                           ["1/4", "3/4", "0", "0"]]),
        }
        import time

        start = time.time()
        for _, (spec, rows) in expected.items():
            target = [[F(v) for v in row] for row in rows]
            assert transition_matrix(spec, 4) == target
        assert time.time() - start < 1.0


def test_criterion_02_spectrum_exactness():
    with report(2, "charpoly(P) equals the closed-form eigenvalue product, n <= 10"):
        import time

        start = time.time()
        for spec in standard_specs():
            for n in sizes_for(spec, 2, 10):
                p = transition_matrix(spec, n)
                roots = signed_eigenvalues(family_sequence(spec, n))
                assert la.charpoly(p) == la.poly_from_roots(roots)
        assert time.time() - start < 30.0


def test_criterion_03_invariant_exactness():
    with report(3, "stationary solve equals closed form; detailed balance exact"):
        for spec in standard_specs():
            for n in sizes_for(spec, 2, 10):
                w = transition_matrix(spec, n)
                pi = stationary(w)
                assert pi == invariant_closed_form(spec, n)
                assert detailed_balance(w, pi)


def antidiag(n):
    """J(n): ones on the anti-diagonal, the matrix of x -> n-1-x."""
    return [[F(1) if x + z == n - 1 else F(0) for z in range(n)] for x in range(n)]


def _pascal_sandwich(lam):
    # independent oracle for P^lambda: B Diag(lambda) B^{-1} J, all explicit
    n = len(lam)
    diag = la.zeros(n)
    for d in range(n):
        diag[d][d] = lam[d]
    h = la.matmul(la.matmul(pascal_matrix(n), diag), pascal_inverse(n))
    return la.matmul(h, antidiag(n))


def test_criterion_04_stochasticity_equivalence():
    with report(4, "alternating-sum criterion == direct matrix check, 1000 draws"):
        rng = random.Random(8128)
        hits = {True: 0, False: 0}
        for trial in range(1000):
            n = rng.randint(3, 8)
            mode = trial % 10
            if mode < 4:
                lam = [F(1)] + [
                    F(rng.randint(-6, 10), rng.randint(1, 10)) for _ in range(n - 1)
                ]
            elif mode < 6:
                vals = sorted(
                    (F(rng.randint(0, 12), 12) for _ in range(n - 1)), reverse=True
                )
                lam = [F(1)] + vals
            elif mode == 6:
                lam = [F(rng.randint(0, 3), 2)] + [
                    F(rng.randint(0, 6), 6) for _ in range(n - 1)
                ]
            else:
                lam = random_stochastic_lambda(n, rng)
            p = _pascal_sandwich(lam)
            direct = all(v >= 0 for row in p for v in row) and all(
                sum(row) == 1 for row in p
            )
            verdict = bool(is_stochastic(lam))
            assert verdict == direct
            hits[verdict] += 1
        assert hits[True] >= 100 and hits[False] >= 100


def test_criterion_05_classification_round_trip():
    with report(5, "classification inverts the closed-form eigenvalues + ladder table"):
        for a in GRID_AB:
            for b in GRID_AB:
                spec = GammaAB(a, b)
                for n in range(3, 9):
                    lam = family_sequence(spec, n)
                    assert classify_walk(lam) == spec
        for c in GRID_C:
            for n in range(3, 9):
                lam = family_sequence(GammaC(c), n)
                assert classify_walk(lam) == GammaC(c)
        for spec in GRID_DELTA:
            n = int(domain_limit(spec))
            if n < 3:
                continue
            lam = family_sequence(spec, n)
            assert classify_walk(lam) == spec
        table = {
            F(10, 23): (F(17), 9),
            F(13, 30): (F(15), 8),
            F(22, 51): (F(13), 7),
            F(3, 7): (F(11), 6),
        }
        for nu, (ap, m) in table.items():
            assert params_from_mu_nu(F(2, 3), nu, 10) == DeltaAB(ap, m)


def test_criterion_06_conjecture_sweep():
    with report(6, "reversible sweep: exact stochastic grids n=3..8 (den<=8)"):
        import time

        # n <= 5 equals the non-increasing grid filtered by is_stochastic
        stochastic = {3: 154, 4: 325, 5: 274, 6: 156, 7: 94, 8: 68}
        start = time.time()
        for n in range(3, 9):
            summary = conjecture_search(n, max_denominator=8)
            assert summary.stochastic == stochastic[n]
            assert summary.reversible > 0
            assert summary.unclassified_reversible == []
            for record in summary.records:
                if record.reversible:
                    assert not isinstance(record.classification, NotClassified)
        assert time.time() - start < 600.0


def test_criterion_07_adep_gadep_conjugator():
    with report(7, "GADEP for family H, counterexample matrices, Pascal conjugator"):
        for spec in standard_specs():
            n = max(sizes_for(spec, 2, 8))  # gadep at the top size covers all m <= n
            h = down_step(spec, n)
            assert gadep_witness(h) is None
            assert binomial_transform_witness(h) is None
        for which in ("L4", "H5"):
            for tau in (F(1, 4), F(1)):
                mat = gadep_counterexample(which, tau)
                assert gadep_witness(mat) is None
                assert binomial_transform_witness(mat) is not None
        for n in range(1, 11):
            assert check_conjugator(pascal_matrix(n), global_check=True)
        rng = random.Random(271828)
        for _ in range(50):
            n = rng.randint(2, 10)
            b = pascal_matrix(n)
            x = rng.randint(1, n - 1)
            y = rng.randint(0, x - 1)
            bump = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            b[x][y] += bump
            assert not check_conjugator(b, global_check=True)


def test_criterion_08_eigenvector_structure():
    with report(8, "alternating Pascal row eigen-equation; exact pi-orthogonality"):
        for a in (F(0), F(1, 2), F(1), F(2)):
            for b in (F(0), F(1, 2), F(1), F(2)):
                spec = GammaAB(a, b)
                for n in range(2, 11):
                    u = final_left_eigenvector(n)
                    p = transition_matrix(spec, n)
                    lam = signed_eigenvalues(family_sequence(spec, n))[-1]
                    assert vecmat(u, p) == [lam * x for x in u]
        binv_cache = {}
        for spec in (GammaAB(0, 0), GammaAB(F(1, 2), 2), GammaAB(1, 1)):
            for n in (4, 6, 8, 10):
                lam = family_sequence(spec, n)
                rights, pi = right_eigenvectors(lam), left_side(lam)[1]
                for d in range(n):
                    for e in range(d + 1, n):
                        assert pi_inner(pi, rights[d], rights[e]) == 0
                if n not in binv_cache:
                    binv_cache[n] = pascal_inverse(n)
                for d, vec in enumerate(rights):
                    coords = matvec(binv_cache[n], vec)
                    assert all(coords[k] == 0 for k in range(d + 1, n))
                    assert coords[d] != 0


def test_criterion_09_subset_walk():
    with report(9, "subset walk spectrum, invariant law, squared two-step"):
        for m in range(1, 7):
            for p in (F(1, 3), F(1, 2)):
                sub = subset_walk(m, p)
                dense = subset_matrix(sub)
                size = 2**m
                # invariant law p^(m-|X|) / (1+p)^m, stationarity exact
                for s in range(size):
                    assert sub.pi[s] == p ** (m - bin(s).count("1")) / (1 + p) ** m
                assert vecmat(sub.pi, dense) == sub.pi
                multiset = sorted(sub.eigenvalues)
                expected = sorted(
                    [(-p) ** e for e in range(m + 1) for _ in range(math.comb(m, e))]
                )
                assert multiset == expected
                if m <= 4:
                    assert la.charpoly(dense) == la.poly_from_roots(sub.eigenvalues)
                    assert la.charpoly(two_step(dense)) == la.poly_from_roots(
                        [v * v for v in sub.eigenvalues]
                    )
                else:
                    # full tensor eigenbasis: columns of an invertible matrix
                    base = {0: [F(1), F(1)], 1: [F(1), -p]}
                    p2 = two_step(dense)
                    for mask in range(size):
                        vec = [F(1)]
                        lam = F(1)
                        for bit in range(m):
                            factor = base[(mask >> bit) & 1]
                            vec = [fj * vi for fj in factor for vi in vec]
                            if (mask >> bit) & 1:
                                lam *= -p
                        assert matvec(dense, vec) == [lam * v for v in vec]
                        assert matvec(p2, vec) == [lam * lam * v for v in vec]
        # lumped by |X| from every start X, the subset walk is the gamma(c)
        # walk on {0..m} with c = 1/p - 1
        for m in (3, 5):
            for p in (F(1, 3), F(1, 2), F(2, 3)):
                sub = subset_walk(m, p)
                lumped = transition_matrix(GammaC(1 / p - 1), m + 1)
                for s, row in enumerate(subset_matrix(sub)):
                    by_size = [F(0)] * (m + 1)
                    for t, v in enumerate(row):
                        by_size[bin(t).count("1")] += v
                    assert by_size == lumped[bin(s).count("1")]


def test_criterion_10_continuum_spectra():
    with report(10, "interval-walk eigen residuals < 1e-8, fixed point < 1e-7"):
        import time

        start = time.time()
        walks = [kappa_walk(a, b) for a in range(3) for b in range(3)] + [trig_walk()]
        for walk in walks:
            assert max(eigen_residuals(walk, 6)) < 1e-8
        for d, value in enumerate(signed_eigenvalues(family_sequence(GammaAB(0, 0), 7))):
            assert float(value) == (-1) ** d / (d + 1)
        for walk in walks:
            assert fixed_point_residual(walk) < 1e-7
        assert time.time() - start < 120.0


def test_criterion_11_discrete_to_continuous_convergence():
    with report(11, "eigenvector convergence distances strictly decrease in n"):
        for dists in convergence_table(0, 0, (1, 2), [10, 20, 40, 80]):
            assert all(dists[i + 1] < dists[i] for i in range(3))


def test_criterion_12_mixing_rate():
    with report(12, "fitted decay rate within 5% of the second eigenvalue 1/2"):
        rep = mixing_report(GammaAB(0, 0), 8)
        assert rep.second_abs_eigenvalue == F(1, 2)
        assert abs(rep.empirical_rate - 0.5) <= 0.05 * 0.5
