"""Transition matrices, stationary distributions, reversibility, simulation."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from involute import _linalg as la
from involute import walk
from involute.errors import NoPositiveStationary, NotIrreducible, OutOfRange
from involute.transform import _pl_rows, lambda_walk, pl_matrix, stochastic_grid, stochastic_lattice
from involute.walk import (
    Distribution,
    WalkMatrix,
    detailed_balance,
    ergodicity,
    invariant_closed_form,
    kolmogorov,
    reversible_with_some_distribution,
    simulate,
    stationary,
    subset_walk,
    total_variation,
    transition_matrix,
)
from involute.weights import Custom, DeltaAB, GammaAB, GammaC, domain_limit

from oracles import two_step
from test_transform import random_stochastic_lambda


def rows(entries):
    return [[F(v) for v in row] for row in entries]


INTRO = {
    GammaAB(0, 0): rows(
        [[0, 0, 0, 1], ["0", "0", "1/2", "1/2"], [0, "1/3", "1/3", "1/3"], ["1/4"] * 4]
    ),
    GammaAB(1, 0): rows(
        [
            [0, 0, 0, 1],
            [0, 0, "2/3", "1/3"],
            [0, "1/2", "1/3", "1/6"],
            ["2/5", "3/10", "1/5", "1/10"],
        ]
    ),
    GammaAB(0, 1): rows(
        [
            [0, 0, 0, 1],
            [0, 0, "1/3", "2/3"],
            [0, "1/6", "1/3", "1/2"],
            ["1/10", "1/5", "3/10", "2/5"],
        ]
    ),
    GammaC(F(1, 2)): rows(
        [
            [0, 0, 0, 1],
            [0, 0, "2/3", "1/3"],
            [0, "4/9", "4/9", "1/9"],
            ["8/27", "4/9", "2/9", "1/27"],
        ]
    ),
    GammaC(2): rows(
        [
            [0, 0, 0, 1],
            [0, 0, "1/3", "2/3"],
            [0, "1/9", "4/9", "4/9"],
            ["1/27", "2/9", "4/9", "8/27"],
        ]
    ),
    DeltaAB(4, 2): rows(
        [[0, 0, 0, 1], [0, 0, "3/4", "1/4"], [0, "1/2", "1/2", 0], ["1/4", "3/4", 0, 0]]
    ),
}


def test_reference_matrices():
    for spec, expected in INTRO.items():
        walk = transition_matrix(spec, 4)
        assert walk.P == expected
        # P = H J and the anti-triangular support
        assert all(
            walk.P[x][z] == walk.H[x][3 - z] for x in range(4) for z in range(4)
        )
        assert all(walk.P[x][z] == 0 for x in range(4) for z in range(3 - x))
        assert all(sum(row) == 1 for row in walk.P)


def test_row_stochastic_and_anti_triangular_across_specs():
    specs = [GammaAB(F(-1, 2), 2), GammaAB(2, F(1, 2)), GammaC(F(1, 3)), DeltaAB(5, 3)]
    for spec in specs:
        for n in (2, 3, 5):
            if isinstance(spec, DeltaAB) and n > 5:
                continue
            w = transition_matrix(spec, n)
            assert all(sum(row) == 1 for row in w.P)
            assert all(w.P[x][z] == 0 for x in range(n) for z in range(n - 1 - x))


def test_stationary_examples():
    assert stationary(transition_matrix(GammaAB(0, 0), 4)).weights == [
        F(1, 10),
        F(2, 10),
        F(3, 10),
        F(4, 10),
    ]
    assert stationary(transition_matrix(GammaC(1), 3)).weights == [F(1, 9), F(4, 9), F(4, 9)]
    flip = WalkMatrix.from_p([[0, 1], [1, 0]])
    assert stationary(flip).weights == [F(1, 2), F(1, 2)]


def test_stationary_not_irreducible():
    with pytest.raises(NotIrreducible):
        stationary([[F(1), F(0)], [F(0), F(1)]])


def test_invariant_closed_form_examples():
    assert invariant_closed_form(GammaAB(0, 0), 4).weights == [
        F(1, 10),
        F(2, 10),
        F(3, 10),
        F(4, 10),
    ]
    assert invariant_closed_form(GammaC(1), 3).weights == [F(1, 9), F(4, 9), F(4, 9)]
    assert invariant_closed_form(DeltaAB(4, 2), 4).weights == [
        F(1, 35),
        F(12, 35),
        F(18, 35),
        F(4, 35),
    ]


def test_closed_form_matches_solve_on_grid():
    values = [F(-1, 2), F(0), F(1, 2), F(1), F(2)]
    specs = [GammaAB(a, b) for a in values for b in values]
    specs += [GammaC(F(1, 2)), GammaC(1), GammaC(2)]
    specs += [DeltaAB(4, 2), DeltaAB(5, 3), DeltaAB(F(7, 2), F(5, 2))]
    for spec in specs:
        from involute.weights import UNBOUNDED, domain_limit

        limit = domain_limit(spec)
        for n in range(2, 7):
            if limit != UNBOUNDED and n > limit:
                continue
            w = transition_matrix(spec, n)
            assert stationary(w).weights == invariant_closed_form(spec, n).weights


def test_ergodicity_examples():
    assert ergodicity(transition_matrix(GammaAB(0, 0), 4)).ergodic
    flip = WalkMatrix.from_p([[0, 1], [1, 0]])
    report = ergodicity(flip)
    assert report.irreducible and not report.aperiodic and not report.ergodic


def test_constant_tail_walk_is_reducible_despite_zero_access():
    # lambda = (1, 1/2, 1/2, 1/2): 0 is reachable from every state, yet the
    # support splits into the classes {0, 3} and {1, 2}
    p = pl_matrix([F(1), F(1, 2), F(1, 2), F(1, 2)])
    report = ergodicity(p)
    assert not report.irreducible
    assert report.communicating_classes == [[0, 3], [1, 2]]
    from involute.transform import _zero_accessible

    assert _zero_accessible(p)


def test_detailed_balance_examples():
    w = transition_matrix(GammaAB(1, 0), 4)
    assert detailed_balance(w, invariant_closed_form(GammaAB(1, 0), 4))
    w = transition_matrix(DeltaAB(4, 2), 4)
    assert detailed_balance(w, invariant_closed_form(DeltaAB(4, 2), 4))
    bad = lambda_walk([F(1), F(3, 5), F(3, 10), F(1, 20)])
    assert not detailed_balance(bad, stationary(bad))


def test_kolmogorov_examples():
    assert kolmogorov(transition_matrix(DeltaAB(4, 2), 4))
    assert not kolmogorov(lambda_walk([F(1), F(3, 5), F(3, 10), F(1, 20)]))
    assert kolmogorov([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]])
    # reducible but without transient states: trivially reversible
    assert kolmogorov([[F(1), F(0)], [F(0), F(1)]])


def test_kolmogorov_needs_positive_stationary():
    with pytest.raises(NoPositiveStationary):
        kolmogorov([[F(1), F(0)], [F(1, 2), F(1, 2)]])


def test_kolmogorov_n14_matches_detailed_balance():
    # the criterion enumerates no cycles, so n is not capped
    lam = [F(1)] + [F(1, k) for k in range(2, 15)]
    w = lambda_walk(lam)
    assert kolmogorov(w) == detailed_balance(w, stationary(w))


def _undirected_cycles(adj_sets: list):
    """Simple cycles of length >= 3, one representative per rotation and
    reflection: smallest vertex first, second vertex below the last."""
    n = len(adj_sets)
    for start in range(n):
        path = [start]
        in_path = {start}

        def extend():
            v = path[-1]
            for u in sorted(adj_sets[v]):
                if u == start and len(path) >= 3 and path[1] < path[-1]:
                    yield tuple(path)
                if u > start and u not in in_path:
                    path.append(u)
                    in_path.add(u)
                    yield from extend()
                    in_path.discard(u)
                    path.pop()

        yield from extend()


def _cycle_balanced(rows, cyc: list) -> bool:
    forward = F(1)
    backward = F(1)
    k = len(cyc)
    for i in range(k):
        forward *= rows[cyc[i]][cyc[(i + 1) % k]]
        backward *= rows[cyc[(i + 1) % k]][cyc[i]]
    return forward == backward


def _kolmogorov_by_cycles(rows) -> bool:
    """Exhaustive oracle: symmetric support and every simple cycle balanced."""
    n = len(rows)
    if any((rows[x][z] == 0) != (rows[z][x] == 0) for x in range(n) for z in range(n)):
        return False
    adj_sets = [{z for z in range(n) if z != x and rows[x][z] != 0} for x in range(n)]
    return all(_cycle_balanced(rows, list(cyc)) for cyc in _undirected_cycles(adj_sets))


def test_kolmogorov_matches_exhaustive_cycle_oracle():
    compared = reversible = 0
    for n in range(3, 8):
        for lam in stochastic_grid(n, 6):
            p = pl_matrix(lam)
            try:
                verdict = kolmogorov(p)
            except NoPositiveStationary:
                continue
            assert verdict == _kolmogorov_by_cycles(p), lam
            compared += 1
            reversible += verdict
    assert compared == 113
    assert 0 < reversible < compared


def test_potentials_verdict_is_scale_free():
    # the sweep decides detailed balance on the integer L * P of each walk
    compared = reversible = 0
    for n in range(1, 7):
        scale, lattice = stochastic_lattice(n, 6)
        for scaled in lattice:
            lam = [F(v, scale) for v in scaled]
            p = pl_matrix(lam)
            scaled_p = _pl_rows(list(scaled))
            assert all(type(v) is int for row in scaled_p for v in row if v)
            assert scaled_p == [[v * scale for v in row] for row in p]
            verdict = walk._potentials(p) is not None
            assert (walk._potentials(scaled_p) is not None) == verdict, lam
            compared += 1
            reversible += verdict
    assert compared == sum(len(stochastic_grid(n, 6)) for n in range(1, 7))
    assert 0 < reversible < compared


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the calls stationary makes to the elimination fallback."""
    calls = []
    eliminate = walk._stationary_by_elimination

    def counted(rows):
        calls.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(walk, "_stationary_by_elimination", counted)
    return calls


def test_stationary_tree_path_matches_elimination(eliminations):
    specs = [GammaAB(0, 0), GammaAB(1, F(1, 3)), GammaAB(F(1, 2), F(2, 3)), GammaC(F(1, 3)),
             GammaC(2), DeltaAB(F(81, 2), 3), DeltaAB(F(21, 2), F(43, 4))]
    for spec in specs:
        for n in (2, 7, 11, 40):
            if isinstance(spec, DeltaAB) and n > domain_limit(spec):
                continue
            w = transition_matrix(spec, n)
            pi = stationary(w)
            assert eliminations == []
            assert pi.weights == walk._stationary_by_elimination(w.P).weights
            assert pi.weights == invariant_closed_form(spec, n).weights
            assert la.vecmat(pi.weights, w.P) == pi.weights
            eliminations.clear()


def test_stationary_falls_back_to_elimination(eliminations):
    w = lambda_walk([F(1), F(3, 5), F(3, 10), F(1, 20)])
    assert not reversible_with_some_distribution(w)[0]
    pi = stationary(w)
    assert eliminations == [4]
    assert la.vecmat(pi.weights, w.P) == pi.weights
    # reversible but reducible: the potentials span two trees
    with pytest.raises(NotIrreducible, match="dimension 2"):
        stationary(WalkMatrix.from_p([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    assert eliminations == [4, 3]


def test_kolmogorov_iff_detailed_balance():
    rng = random.Random(414)
    cases = [transition_matrix(GammaAB(0, 0), n).P for n in (3, 4, 5, 6)]
    cases += [transition_matrix(DeltaAB(4, 2), 4).P]
    for n in (3, 4, 5, 6):
        for _ in range(12):
            cases.append(pl_matrix(random_stochastic_lambda(n, rng)))
    for p in cases:
        report = ergodicity(p)
        if not report.ergodic:
            continue
        db = detailed_balance(p, stationary(p))
        assert kolmogorov(p) == db
        assert reversible_with_some_distribution(p)[0] == db


def test_simulate_deterministic_flip():
    flip = WalkMatrix.from_p([[0, 1], [1, 0]])
    result = simulate(flip, 0, 5, seed=99)
    assert result.trajectory == [0, 1, 0, 1, 0, 1]


def test_simulate_rejects_negative_steps():
    w = transition_matrix(GammaAB(1, 1), 4)
    assert simulate(w, 0, 0, seed=0).trajectory == [0]
    with pytest.raises(OutOfRange):
        simulate(w, 0, -5, seed=0)


def test_simulate_reaches_stationary():
    w = transition_matrix(GammaAB(0, 0), 4)
    result = simulate(w, 0, 10**6, seed=12345)
    pi = [0.1, 0.2, 0.3, 0.4]
    assert total_variation(result.empirical, pi) < 0.01


def test_simulate_seed_independence_of_long_run():
    w = transition_matrix(GammaC(2), 4)
    r1 = simulate(w, 3, 200_000, seed=1)
    r2 = simulate(w, 3, 200_000, seed=2)
    assert r1.trajectory[:2000] != r2.trajectory[:2000]
    assert total_variation(r1.empirical, r2.empirical) < 0.02


def test_two_step_examples():
    w = transition_matrix(GammaAB(0, 0), 2)
    assert two_step(w) == rows([["1/2", "1/2"], ["1/4", "3/4"]])
    flip = WalkMatrix.from_p([[0, 1], [1, 0]])
    assert two_step(flip) == la.identity(2)


def test_two_step_eigenvalues_are_squares():
    from involute.spectral import eigenvalues_closed_form

    for spec in (GammaAB(0, 0), GammaAB(1, 0), GammaC(F(1, 2)), DeltaAB(5, 3)):
        for n in (3, 4, 5):
            w = transition_matrix(spec, n)
            values = eigenvalues_closed_form(spec, n)
            assert la.charpoly(two_step(w)) == la.poly_from_roots([v * v for v in values])


def test_subset_walk_m1():
    sub = subset_walk(1, F(1, 2))
    assert sub.walk.P == rows([[0, 1], ["1/2", "1/2"]])
    assert sub.pi.weights == [F(1, 3), F(2, 3)]
    assert sub.eigenvalues == [F(1), F(-1, 2)]


def test_subset_walk_m2():
    sub = subset_walk(2, F(1, 2))
    assert sub.pi.weights == [F(1, 9), F(2, 9), F(2, 9), F(4, 9)]
    assert sorted(sub.eigenvalues) == sorted([F(1), F(-1, 2), F(-1, 2), F(1, 4)])
    # charpoly agrees with the closed-form multiset
    assert la.charpoly(sub.walk.P) == la.poly_from_roots(sub.eigenvalues)


def test_distribution_validates_public_laws():
    assert Distribution(2, ["1/3", F(2, 3)]).weights == [F(1, 3), F(2, 3)]
    with pytest.raises(OutOfRange, match="non-negative"):
        Distribution(3, [F(1, 2), F(-1, 2), F(1)])
    with pytest.raises(OutOfRange, match="sum to 1"):
        Distribution(2, [F(1, 2), F(1, 3)])
    # laws built inside the package skip the checks but would pass them
    built = [subset_walk(4, F(2, 3)).pi, stationary(transition_matrix(GammaAB(1, 2), 6)),
             stationary(lambda_walk([F(1), F(3, 5), F(3, 10), F(1, 20)]))]
    for law in built:
        assert Distribution(law.n, law.weights) == law


def test_subset_walk_multiplicity():
    sub = subset_walk(3, F(1, 3))
    assert sub.eigenvalues.count(F(-1, 3)) == 3
    assert stationary(sub.walk).weights == sub.pi.weights
    assert detailed_balance(sub.walk, sub.pi)


@pytest.mark.parametrize(
    "p_rows, message",
    [
        # a negative entry offset by a positive one: the row still sums to 1
        ([[0, 1], [F(-1, 2), F(3, 2)]], "row 1 is not a probability distribution"),
        ([[0, 1], [F(1, 2), F(1, 3)]], "row 1 is not a probability distribution"),
        ([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], "row 0 breaks the anti-triangular support"),
        ([[0, 0, 1], [0, F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]], "must be square"),
        ([[0, 1], [F(1, 2), F(1, 2)], [0, 1]], "must be square"),
    ],
)
def test_from_p_rejects_non_walks(p_rows, message):
    with pytest.raises(OutOfRange, match=message):
        WalkMatrix.from_p(p_rows)


def test_from_p_round_trips_subset_walks():
    for m in range(1, 6):
        for p in (F(1, 3), F(3, 4)):
            sub = subset_walk(m, p)
            assert WalkMatrix.from_p(sub.walk.P) == sub.walk
            size = 2**m
            assert sub.walk.H == [[sub.walk.P[x][size - 1 - y] for y in range(size)]
                                  for x in range(size)]


def test_custom_weight_walk_roundtrip():
    table = {(0, 0): F(2), (0, 1): F(1), (1, 1): F(3)}
    w = transition_matrix(Custom(2, table), 2)
    assert w.P == rows([[0, 1], ["3/4", "1/4"]])


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=0, max_value=4, max_denominator=6),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        ).map(lambda vals: (n, vals))
    )
)
@settings(max_examples=40)
def test_every_weight_gives_anti_triangular_stochastic_walk(case):
    n, vals = case
    table = {}
    it = iter(vals)
    for x in range(n):
        for y in range(x + 1):
            table[(y, x)] = next(it)
    try:
        spec = Custom(n, table)
    except Exception:
        assume(False)
    w = transition_matrix(spec, n)
    assert all(sum(row) == 1 for row in w.P)
    assert all(v >= 0 for row in w.P for v in row)
    assert all(w.P[x][z] == 0 for x in range(n) for z in range(n - 1 - x))
    report = ergodicity(w)
    if report.irreducible:
        pi = stationary(w)
        assert la.vecmat(pi.weights, w.P) == pi.weights
        if report.ergodic:
            assert detailed_balance(w, pi) == kolmogorov(w)
