"""Transition matrices, stationary distributions, reversibility, simulation."""

import operator
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from involute import _linalg as la
from involute import walk
from involute.errors import NoPositiveStationary, NotIrreducible, OutOfRange
from involute.transform import (_binomial_rows, _difference_rows, _lattice_records, _scaled_walk,
                               lambda_walk)
from involute.spectral import left_side
from involute.walk import (
    checked_walk,
    ergodicity,
    kolmogorov,
    simulate,
    stationary,
    subset_matrix,
    subset_walk,
    total_variation,
    transition_matrix,
    visit_frequencies,
)
from involute.weights import (Custom, DeltaAB, GammaAB, GammaC, custom_from_csv, domain_limit,
                              family_sequence, invariant_closed_form)

from oracles import (
    BENCH_GAMMA,
    NAMED_SPECS,
    _assert_verdicts_match_the_markov_oracle,
    cycle_gcd,
    detailed_balance,
    division_route,
    identity,
    markov_oracle,
    norm_table,
    pattern_is_ergodic,
    reversible_with_some_distribution,
    simulate_stepwise,
    spec_from_flags,
    stochastic_grid,
    stochastic_lattice,
    support_patterns,
    two_step,
    vecmat,
    weight_rows,
    zero_accessible,
)
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
        p = transition_matrix(spec, 4)
        assert p == expected
        assert all(p[x][z] == 0 for x in range(4) for z in range(3 - x))
        assert all(sum(row) == 1 for row in p)


def test_row_stochastic_and_anti_triangular_across_specs():
    specs = [GammaAB(F(-1, 2), 2), GammaAB(2, F(1, 2)), GammaC(F(1, 3)), DeltaAB(5, 3)]
    for spec in specs:
        for n in (2, 3, 5):
            if isinstance(spec, DeltaAB) and n > 5:
                continue
            p = transition_matrix(spec, n)
            assert all(sum(row) == 1 for row in p)
            assert all(p[x][z] == 0 for x in range(n) for z in range(n - 1 - x))


def test_stationary_examples():
    assert stationary(transition_matrix(GammaAB(0, 0), 4)) == [
        F(1, 10),
        F(2, 10),
        F(3, 10),
        F(4, 10),
    ]
    assert stationary(transition_matrix(GammaC(1), 3)) == [F(1, 9), F(4, 9), F(4, 9)]
    flip = checked_walk([[0, 1], [1, 0]])
    assert stationary(flip) == [F(1, 2), F(1, 2)]


def test_stationary_not_irreducible():
    with pytest.raises(NotIrreducible):
        stationary([[F(1), F(0)], [F(0), F(1)]])


def test_invariant_closed_form_examples():
    assert invariant_closed_form(GammaAB(0, 0), 4) == [
        F(1, 10),
        F(2, 10),
        F(3, 10),
        F(4, 10),
    ]
    assert invariant_closed_form(GammaC(1), 3) == [F(1, 9), F(4, 9), F(4, 9)]
    assert invariant_closed_form(DeltaAB(4, 2), 4) == [
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
            assert stationary(transition_matrix(spec, n)) == invariant_closed_form(spec, n)


def test_ergodicity_examples():
    assert ergodicity(transition_matrix(GammaAB(0, 0), 4)).ergodic
    flip = checked_walk([[0, 1], [1, 0]])
    report = ergodicity(flip)
    assert report.irreducible and not report.aperiodic and not report.ergodic


def _condition_d_patterns(n: int):
    """The support patterns with w[x, x] > 0 for every x and w[x-1, x] > 0
    for every x >= 1, the other intervals free."""
    forced = {(x, x) for x in range(n)} | {(x - 1, x) for x in range(1, n)}
    free = [(y, x) for x in range(n) for y in range(x - 1)]
    for mask in range(1 << len(free)):
        yield forced | {cell for i, cell in enumerate(free) if mask >> i & 1}


def _pattern_walk(n: int, pattern) -> list:
    return transition_matrix(Custom(n, dict.fromkeys(pattern, 1)), n)


def test_condition_d_makes_every_walk_ergodic():
    # the sufficient condition of the `ergodicity` docstring, on every
    # pattern that meets it for n = 2..6, as unit-weight custom tables
    counts = []
    for n in range(2, 7):
        patterns = list(_condition_d_patterns(n))
        for pattern in patterns:
            assert ergodicity(_pattern_walk(n, pattern)).ergodic, (n, sorted(pattern))
            assert pattern_is_ergodic(n, pattern)
        counts.append(len(patterns))
    assert counts == [1, 2, 8, 64, 1024]


def test_ergodicity_matches_pattern_oracle_and_condition_d_is_not_necessary():
    # every support pattern at n <= 4: the report agrees with the bitmask
    # oracle, and some ergodic walks break condition D
    ergodic, meets_d = [], []
    for n in range(1, 5):
        d_patterns = [frozenset(p) for p in _condition_d_patterns(n)]
        patterns = list(support_patterns(n))
        verdicts = [ergodicity(_pattern_walk(n, p)).ergodic for p in patterns]
        assert verdicts == [pattern_is_ergodic(n, p) for p in patterns]
        ergodic.append(sum(verdicts))
        meets_d.append(sum(frozenset(p) in d_patterns for p in patterns))
    assert [len(list(support_patterns(n))) for n in range(1, 5)] == [1, 3, 21, 315]
    assert ergodic == [1, 1, 3, 69] and meets_d == [1, 1, 2, 8]


def _support_walk(n: int, s: int) -> list:
    """The 0/1 support of a lambda walk whose mixing law p has support S,
    the bitmask s over j = 0..N, N = n-1: row x holds z = N-y for every
    y in [max(0, x+j-N), min(x, j)] and j in S."""
    big_n = n - 1
    rows = []
    for x in range(n):
        mask = 0
        for j in range(n):
            if s >> j & 1:
                low, high = max(0, x + j - big_n), min(x, j)
                mask |= (1 << high + 1) - (1 << low)  # bits y = low..high
        rows.append([mask >> (big_n - z) & 1 for z in range(n)])
    return rows


def test_lambda_walk_ergodicity_from_the_support_of_its_mixing_law():
    # checked for n <= 12, not proved: a lambda walk is
    # ergodic exactly when N is in S and S meets [N // 2, N - 1], S the
    # support of p_j = C(N, j) D_{N-j}(j); every nonempty S, as bitmasks.
    # Condition D, w[x, x] > 0 and w[x-1, x] > 0, reads {N-1, N} ⊆ S
    supports = 0
    for n in range(2, 13):
        big_n = n - 1
        middle = sum(1 << j for j in range(big_n // 2, big_n))
        for s in range(1, 1 << n):
            rows = _support_walk(n, s)
            criterion = bool(s >> big_n & 1 and s & middle)
            assert ergodicity(rows).ergodic is criterion, (n, bin(s))
            meets_d = (all(rows[x][big_n - x] for x in range(n))
                       and all(rows[x][n - x] for x in range(1, n)))
            assert meets_d is (s >> (big_n - 1) & 3 == 3), (n, bin(s))
            supports += 1
    assert supports == 8_177
    # and the support of a lambda walk is that pattern, on the lattice records
    records = 0
    for n in range(1, 7):
        scale, lattice = _lattice_records(n, 6)
        for scaled, table in lattice:
            s = sum(1 << j for j in range(n) if table[n - 1 - j][-1])  # D_{N-j}(j)
            p = lambda_walk([F(v, scale) for v in scaled])
            assert [[int(v != 0) for v in row] for row in p] == _support_walk(n, s), scaled
            records += 1
    assert records == 231


def _zero_one_supports():
    """Every 0/1 matrix at n <= 3, then every support pattern at n = 4 read
    as the support of P, which steps from x to n-1-y for each (y, x)."""
    for n in range(1, 4):
        for mask in range(1 << n * n):
            yield [[mask >> (x * n + z) & 1 for z in range(n)] for x in range(n)]
    for pattern in support_patterns(4):
        yield [[int((3 - z, x) in pattern) for z in range(4)] for x in range(4)]


def test_class_period_is_zero_exactly_for_a_state_without_a_cycle():
    # the convention `ergodicity` reads as "period at most 1": each class's
    # period is its cycle gcd, 0 exactly for one state without a loop, and
    # a walk is aperiodic when every class that has a cycle has period 1
    supports = 0
    for p in _zero_one_supports():
        adj = walk.support(p)
        comps = list(walk._classes(adj).values())
        gcds = [cycle_gcd(p, comp) for comp in comps]
        assert [walk._class_period(adj, comp) for comp in comps] == gcds, p
        assert [g == 0 for g in gcds] == [len(c) == 1 and not p[c[0]][c[0]] for c in comps], p
        assert ergodicity(p).aperiodic is all(g == 1 for g in gcds if g), p
        supports += 1
    assert supports == 530 + 315


def test_walk_verdicts_match_the_markov_oracle():
    # every support pattern at n <= 4 with weights uniform in 1..4, and every
    # lattice record at n <= 6 with denominators up to 6, through lambda_walk
    rng = random.Random(7)
    patterns = [(n, pattern) for n in range(1, 5) for pattern in support_patterns(n)]
    for n, pattern in patterns:
        table = {cell: rng.randint(1, 4) for cell in sorted(pattern)}
        _assert_verdicts_match_the_markov_oracle(transition_matrix(Custom(n, table), n))
    records = 0
    for n in range(1, 7):
        scale, lattice = _lattice_records(n, 6)
        for scaled, _ in lattice:
            _assert_verdicts_match_the_markov_oracle(lambda_walk([F(v, scale) for v in scaled]))
            records += 1
    assert (len(patterns), records) == (340, 231)


def test_stationary_counts_closed_classes_before_any_elimination(monkeypatch):
    # the stationary laws of a walk span one dimension per closed class: with
    # k >= 2 the walk is refused from its classes and no rref runs, with one
    # its law is the oracle's pi, and when the potentials exist their tree
    # count is k.  The inputs of test_walk_verdicts_match_the_markov_oracle
    solved = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda m: solved.append(len(m)) or rref(m))
    rng = random.Random(7)
    walks = []
    for n in range(1, 5):
        for pattern in support_patterns(n):
            table = {cell: rng.randint(1, 4) for cell in sorted(pattern)}
            walks.append(transition_matrix(Custom(n, table), n))
    for n in range(1, 7):
        scale, lattice = _lattice_records(n, 6)
        walks += [lambda_walk([F(v, scale) for v in scaled]) for scaled, _ in lattice]
    kinds = set()
    for p in walks:
        want = markov_oracle(p)
        k = len(want["closed"])
        found = walk._potentials(p)
        assert found is None or found[1] == k, p
        solved.clear()
        if k > 1:
            assert want["pi"] is None
            with pytest.raises(NotIrreducible, match=f"^stationary space has dimension {k}$"):
                stationary(p)
            assert solved == [], p
        else:
            assert stationary(p) == want["pi"], p
            assert solved == ([] if found else [len(p)]), p
        kinds.add((k > 1, found is not None))
    assert len(walks) == 340 + 231 and len(kinds) == 4


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reversible_walks_match_the_markov_oracle(data):
    # any symmetric f >= 0 supported on x + z >= n-1, no row of it zero,
    # gives the reversible involutive walk P[x][z] = f(x, z) / pi_x,
    # pi_x = sum_z f(x, z), and every reversible walk with pi > 0 is one
    n = data.draw(st.integers(min_value=1, max_value=8))
    f = [[0] * n for _ in range(n)]
    for x in range(n):
        for z in range(max(x, n - 1 - x), n):
            f[x][z] = f[z][x] = data.draw(st.integers(min_value=0, max_value=4))
    assume(all(any(row) for row in f))
    p = [[F(v, sum(row)) for v in row] for row in f]
    want = _assert_verdicts_match_the_markov_oracle(p)
    assert walk._potentials(p) is not None
    if want["pi"] is not None:
        assert want["pi"] == [F(sum(row), sum(map(sum, f))) for row in f]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_walks_match_the_markov_oracle(data):
    # support patterns at n <= 8, each column a non-empty set of lower
    # endpoints y, with weights uniform in 1..4: walks that are mostly
    # reducible, periodic or not reversible, unlike the reversible draws
    n = data.draw(st.integers(min_value=1, max_value=8))
    table = {}
    for x in range(n):
        for y in sorted(data.draw(st.sets(st.integers(min_value=0, max_value=x), min_size=1))):
            table[(y, x)] = data.draw(st.integers(min_value=1, max_value=4))
    _assert_verdicts_match_the_markov_oracle(transition_matrix(Custom(n, table), n))


def test_named_families_meet_condition_d():
    specs = [GammaAB(0, 0), GammaAB(1, F(1, 3)), GammaAB(2, F(2, 3)), GammaAB(F(-1, 2), F(1, 3)),
             GammaC(F(1, 2)), GammaC(3), DeltaAB(9, 3), DeltaAB(5, 2), DeltaAB(F(21, 2), F(43, 4))]
    for spec in specs:
        for n in range(2, min(12, domain_limit(spec)) + 1):
            w = weight_rows(spec, n)
            assert all(w[x][x] > 0 for x in range(n)), (spec, n)
            assert all(w[x][x - 1] > 0 for x in range(1, n)), (spec, n)


def test_ergodicity_reads_each_entry_once():
    reads = []

    class Entry(F):
        def __bool__(self):
            reads.append(self)
            return super().__bool__()

    p = [[Entry(v) for v in row] for row in transition_matrix(GammaAB(1, F(1, 3)), 12)]
    assert ergodicity(p) == ergodicity(transition_matrix(GammaAB(1, F(1, 3)), 12))
    assert len(reads) == 12 * 12


def test_constant_tail_walk_is_reducible_despite_zero_access():
    # lambda = (1, 1/2, 1/2, 1/2): 0 is reachable from every state, yet the
    # support splits into the classes {0, 3} and {1, 2}
    p = lambda_walk([F(1), F(1, 2), F(1, 2), F(1, 2)])
    report = ergodicity(p)
    assert not report.irreducible
    assert report.communicating_classes == [[0, 3], [1, 2]]
    assert walk._zero_reachable(p)


def test_closed_classes():
    # state 1 leaks into the absorbing state 0
    leaky = [[F(1), F(0)], [F(1, 2), F(1, 2)]]
    assert walk._closed_classes(leaky) == [[0]]
    assert walk._zero_reachable(leaky)
    # two closed classes: 0 is not reached from state 1
    assert walk._closed_classes([[1, 0], [0, 1]]) == [[0], [1]]
    assert not walk._zero_reachable([[1, 0], [0, 1]])
    # 0 transient: its class is not closed
    assert walk._closed_classes([[0, 1], [0, 1]]) == [[1]]
    assert not walk._zero_reachable([[0, 1], [0, 1]])


def _scaled_p(scaled) -> list:
    """L * P^lambda on integers, for scaled = L * lambda: each entry of H
    read off the integer difference rows over 1."""
    return [row[::-1] for row in
            _binomial_rows(list(_difference_rows(scaled)), 1, operator.floordiv)]


def test_zero_reachable_matches_fixed_point_oracle():
    # every stochastic grid walk for n <= 7, den <= 6, and random supports
    cases = [_scaled_p(scaled) for n in range(1, 8) for scaled in stochastic_lattice(n, 6)[1]]
    rng = random.Random(3256)
    for _ in range(1500):
        n = rng.randint(1, 7)
        cases.append([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
    verdicts = [walk._zero_reachable(p) for p in cases]
    assert verdicts == [zero_accessible(p) for p in cases]
    assert 0 < sum(verdicts) < len(cases)


def test_classes_are_mutual_reachability_classes():
    rng = random.Random(1729)
    for _ in range(500):
        n = rng.randint(1, 9)
        p = [[int(rng.random() < 0.3) for _ in range(n)] for _ in range(n)]
        adj = walk.support(p)
        reach = []
        for x in range(n):
            seen, todo = {x}, [x]
            while todo:
                for z in adj[todo.pop()]:
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
            reach.append(seen)
        classes = sorted(list(c) for c in
                         {tuple(z for z in sorted(reach[x]) if x in reach[z]) for x in range(n)})
        found = walk._classes(adj)
        assert list(found.values()) == classes
        assert list(found) == [sum(1 << z for z in reach[c[0]]) for c in classes]
        assert walk._closed_classes(p) == [c for c in classes if reach[c[0]] == set(c)]
        assert walk._zero_reachable(p) == all(0 in r for r in reach)


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


def test_kolmogorov_scans_closed_classes_only_when_potentials_fail(monkeypatch):
    # potentials need a symmetric support, so every class is closed: a
    # reversible walk is decided without the closed-class scan
    scans = []
    closed_classes = walk._closed_classes

    def spy(p):
        scans.append(len(p))
        return closed_classes(p)

    monkeypatch.setattr(walk, "_closed_classes", spy)
    for spec in (GammaAB(1, F(1, 3)), GammaC(F(1, 2)), DeltaAB(9, 3)):
        assert kolmogorov(transition_matrix(spec, 9))
    assert scans == []
    assert not kolmogorov(lambda_walk([F(1), F(3, 5), F(3, 10), F(1, 20)]))
    assert scans == [4]
    # states 1 and 2 leave for the closed class {0, 3} and never come back
    with pytest.raises(NoPositiveStationary):
        kolmogorov(lambda_walk([F(1), F(1, 2), F(1, 2), F(1, 2)]))
    assert scans == [4, 4]


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
            p = lambda_walk(lam)
            try:
                verdict = kolmogorov(p)
            except NoPositiveStationary:
                continue
            assert verdict == _kolmogorov_by_cycles(p), lam
            compared += 1
            reversible += verdict
    assert compared == 113
    assert 0 < reversible < compared


def _balanced_table(n: int) -> list:
    """A full-support matrix in detailed balance with pi = (1, ..., n):
    A[x][z] = S[x][z] pi_z for a symmetric S."""
    return [[F(1 + x + z + x * z, 7) * (z + 1) for z in range(n)] for x in range(n)]


def _numerator_reads(rows) -> tuple:
    """(_potentials(rows), how many numerators it read): two for each
    equation it spreads or checks."""
    reads = []

    class Entry(F):
        @property
        def numerator(self):
            reads.append(self)
            return super().numerator

    return walk._potentials([[Entry(v) for v in row] for row in rows]), len(reads)


def test_potentials_check_each_equation_from_its_larger_state_and_stop_at_the_first_failure():
    # full support on 4 states: the tree from 0 spreads over (0, 1), (0, 2)
    # and (0, 3), and each equation is checked as its larger state comes off
    # the stack: (0, 3), (1, 3), (2, 3), then (0, 2), (1, 2), then (0, 1).
    # The three tree edges hold by construction, and no other equation is
    # checked twice
    base = _balanced_table(4)
    found, reads = _numerator_reads(base)
    assert found == ([(1, 1), (2, 1), (3, 1), (4, 1)], 1)
    assert reads == 2 * (3 + 3 + 3)  # 3 spreads, 3 checks and the tree edges again
    first, last = [row[:] for row in base], [row[:] for row in base]
    first[2][3] *= 2  # breaks (2, 3) alone
    last[1][3] *= 2  # breaks (1, 3) alone
    assert not detailed_balance(first, [1, 2, 3, 4]) and not detailed_balance(last, [1, 2, 3, 4])
    assert _numerator_reads(first) == (None, 2 * 6)  # three spreads and three checks
    assert _numerator_reads(last) == (None, 2 * 5)
    assert kolmogorov(base) and not kolmogorov(first) and not kolmogorov(last)
    # a named family's integer L * M: its root 0 steps only to n - 1, which
    # spreads to every other state, so one tree edge, (0, n - 1), is read
    # twice and every other equation once
    for n in (4, 6, 9):
        m = _scaled_walk(family_sequence(GammaAB(1, F(1, 3)), n))[1]
        edges = sum(1 for x in range(n) for z in range(x) if m[x][z])
        assert not any(m[0][:n - 1]) and all(m[n - 1][:n - 1])
        found, reads = _numerator_reads(m)
        assert found is not None and found[1] == 1
        assert reads == 2 * (edges + 1), n


def test_potentials_refuse_an_asymmetric_support():
    # a zero mirror entry ends the search, wherever the DFS meets the edge
    base = _balanced_table(5)
    assert walk._potentials(base) is not None
    for x in range(5):
        for z in range(5):
            if x != z:
                rows = [row[:] for row in base]
                rows[z][x] = F(0)
                assert walk._potentials(rows) is None, (x, z)
    # states 1 and 2 of this lambda walk step to the closed class {0, 3} and
    # are never stepped to from it; its integer L * M has the same support
    lam = [F(1), F(1, 2), F(1, 2), F(1, 2)]
    for p in (lambda_walk(lam), _scaled_walk(lam)[1]):
        assert p[1][3] and not p[3][1]
        assert walk._potentials(p) is None


def test_potentials_verdict_is_scale_free():
    # integer pairs spread from L * P and from the Fraction P give the same
    # potentials and tree count, positive and balancing P, and one tree
    # exactly when 0 is reached from every state, which the sweep relies on
    # (its L * M is checked against P in test_transform)
    compared = one_tree = several = 0
    for n in range(1, 8):
        scale, lattice = stochastic_lattice(n, 6)
        for scaled in lattice:
            p = lambda_walk([F(v, scale) for v in scaled])
            scaled_p = _scaled_p(scaled)
            assert all(type(v) is int for row in scaled_p for v in row)
            assert scaled_p == [[v * scale for v in row] for row in p]
            found = walk._potentials(p)
            assert walk._potentials(scaled_p) == found, scaled
            compared += 1
            if found is None:
                continue
            pairs, trees = found
            assert all(type(a) is type(b) is int and a > 0 and b > 0 for a, b in pairs)
            assert detailed_balance(p, [F(a, b) for a, b in pairs])
            assert walk._zero_reachable(p) == (trees == 1), scaled
            one_tree += trees == 1
            several += trees > 1
    assert compared == sum(len(stochastic_grid(n, 6)) for n in range(1, 8))
    assert one_tree > 50 and several > 0 and one_tree + several < compared


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
            p = transition_matrix(spec, n)
            pi = stationary(p)
            assert eliminations == []
            assert pi == walk._stationary_by_elimination(p)
            assert pi == invariant_closed_form(spec, n)
            assert vecmat(pi, p) == pi
            eliminations.clear()


def test_stationary_falls_back_to_elimination(eliminations):
    p = lambda_walk([F(1), F(3, 5), F(3, 10), F(1, 20)])
    assert not reversible_with_some_distribution(p)[0]
    pi = stationary(p)
    assert eliminations == [4]
    assert vecmat(pi, p) == pi
    # reversible but reducible: the potentials span two trees, two closed
    # classes, and the walk is refused with no elimination
    with pytest.raises(NotIrreducible, match="dimension 2"):
        stationary(checked_walk([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    assert eliminations == [4]


def test_elimination_is_refused_past_its_budget(monkeypatch, eliminations):
    # stationary's fallback, one rref of (P - I)^T, took 3.2 s at n = 80 on a
    # walk that is not reversible; past the budget the refusal comes first
    class Solved(Exception):
        pass

    def rref(m):
        solved.append(len(m))
        raise Solved

    solved = []
    monkeypatch.setattr(la, "rref", rref)
    budget = walk.ELIMINATION_BUDGET
    for n in (budget, budget + 1):
        rng = random.Random(n)
        table = {(y, x): F(rng.randint(1, 9), rng.randint(1, 9))
                 for x in range(n) for y in range(x + 1)}
        p = transition_matrix(Custom(n, table), n)
        assert walk._potentials(p) is None
        with pytest.raises(Solved if n == budget else OutOfRange) as refused:
            stationary(p)
    assert str(refused.value) == (f"a stationary law by elimination needs n <= {budget}, "
                                  f"the elimination budget, got n={budget + 1}")
    assert eliminations == [budget, budget + 1] and solved == [budget]


def test_kolmogorov_iff_detailed_balance():
    rng = random.Random(414)
    cases = [transition_matrix(GammaAB(0, 0), n) for n in (3, 4, 5, 6)]
    cases += [transition_matrix(DeltaAB(4, 2), 4)]
    for n in (3, 4, 5, 6):
        for _ in range(12):
            cases.append(lambda_walk(random_stochastic_lambda(n, rng)))
    for p in cases:
        report = ergodicity(p)
        if not report.ergodic:
            continue
        db = detailed_balance(p, stationary(p))
        assert kolmogorov(p) == db
        assert reversible_with_some_distribution(p)[0] == db


def test_simulate_deterministic_flip():
    flip = checked_walk([[0, 1], [1, 0]])
    assert simulate(flip, 0, 5, seed=99) == [0, 1, 0, 1, 0, 1]


def test_simulate_rejects_negative_steps():
    w = transition_matrix(GammaAB(1, 1), 4)
    assert simulate(w, 0, 0, seed=0) == [0]
    with pytest.raises(OutOfRange):
        simulate(w, 0, -5, seed=0)


# a stochastic lambda whose P has zeros inside the support: row 3 is 0, 1, 0, 0
ZERO_ENTRY_LAMBDA = [F(1), F(2, 3), F(1, 3), F(0)]


def test_simulate_matches_stepwise_loop():
    walks = [transition_matrix(GammaAB(1, F(1, 3)), n) for n in (1, 2, 5, 20)]
    walks += [transition_matrix(GammaC(F(3, 2)), 7), transition_matrix(DeltaAB(4, 2), 4),
              lambda_walk(ZERO_ENTRY_LAMBDA)]
    assert walks[-1][3] == [0, 1, 0, 0]
    for w in walks:
        for x0 in {0, len(w) - 1}:
            for seed in (0, 1, 7, 20260):
                for steps in (0, 1, 500):
                    traj = simulate(w, x0, steps, seed)
                    assert (traj, visit_frequencies(traj, len(w))) == simulate_stepwise(
                        w, x0, steps, seed)


def _float_route_matches(spec, n):
    floats = transition_matrix(spec, n, operator.truediv)
    exact = transition_matrix(spec, n)
    # float.hex tells every bit apart, -0.0 from 0.0 included
    assert [[v.hex() for v in row] for row in floats] == [
        [float(v).hex() for v in row] for row in exact], (spec, n)
    assert all(type(v) is float for row in floats for v in row)
    return floats


def test_float_rows_from_integer_pairs_are_the_floats_of_the_fractions():
    # int / int and float() of the reduced Fraction round the same rational,
    # so simulate samples the same rows on either route
    for flags in NAMED_SPECS:
        spec = spec_from_flags(flags)
        for n in range(1, 14):
            if n <= domain_limit(spec):
                _float_route_matches(spec, n)
    for a, b in BENCH_GAMMA:
        _float_route_matches(GammaAB(F(a), F(b)), 20)
    custom = custom_from_csv("y,x,w\n0,0,1\n0,1,1/3\n1,1,2/3\n0,2,1/2\n2,2,1/4\n1,3,2\n"
                             "3,3,1\n0,4,-0\n2,4,0.125\n4,4,7/3\n1,5,1e-320\n5,5,1\n")
    floats = _float_route_matches(custom, 6)
    assert 0 < floats[5][-2] < sys.float_info.min  # subnormal
    # H[2][0] = c^2 / (1 + c)^2 is subnormal for c = 10^-160, and entries
    # further down underflow to 0.0 from integers of up to 2,000 digits
    for n in (3, 4, 13):
        floats = _float_route_matches(GammaC(F(1, 10**160)), n)
        assert 0 < floats[2][-1] < sys.float_info.min


def test_simulate_counts_visits_only_in_visit_frequencies(monkeypatch):
    w = transition_matrix(GammaAB(1, F(1, 3)), 20)
    for x0, steps, seed in ((19, 0, 0), (0, 1, 3), (19, 2500, 11)):
        monkeypatch.setattr(walk, "Counter", None)  # counting here would fail
        result = simulate(w, x0, steps, seed)
        monkeypatch.undo()
        traj, empirical = simulate_stepwise(w, x0, steps, seed)
        assert result == traj
        assert visit_frequencies(result, 20) == empirical and len(empirical) == 20
    # every state of 0..n-1 is counted, visited or not
    assert visit_frequencies([0, 1, 1, 3], 5) == [0.25, 0.5, 0.0, 0.25, 0.0]


def test_simulate_reaches_stationary():
    w = transition_matrix(GammaAB(0, 0), 4)
    result = simulate(w, 0, 10**6, seed=12345)
    pi = [0.1, 0.2, 0.3, 0.4]
    assert total_variation(visit_frequencies(result, 4), pi) < 0.01


def test_simulate_seed_independence_of_long_run():
    w = transition_matrix(GammaC(2), 4)
    r1 = simulate(w, 3, 200_000, seed=1)
    r2 = simulate(w, 3, 200_000, seed=2)
    assert r1[:2000] != r2[:2000]
    assert total_variation(visit_frequencies(r1, 4), visit_frequencies(r2, 4)) < 0.02


def test_two_step_examples():
    w = transition_matrix(GammaAB(0, 0), 2)
    assert two_step(w) == rows([["1/2", "1/2"], ["1/4", "3/4"]])
    flip = checked_walk([[0, 1], [1, 0]])
    assert two_step(flip) == identity(2)


def test_two_step_eigenvalues_are_squares():
    from involute.spectral import signed_eigenvalues

    for spec in (GammaAB(0, 0), GammaAB(1, 0), GammaC(F(1, 2)), DeltaAB(5, 3)):
        for n in (3, 4, 5):
            w = transition_matrix(spec, n)
            values = signed_eigenvalues(family_sequence(spec, n))
            assert la.charpoly(two_step(w)) == la.poly_from_roots([v * v for v in values])


def test_subset_walk_m1():
    sub = subset_walk(1, F(1, 2))
    assert subset_matrix(sub) == rows([[0, 1], ["1/2", "1/2"]])
    assert sub.pi == [F(1, 3), F(2, 3)]
    assert sub.eigenvalues == [F(1), F(-1, 2)]


def test_subset_walk_m2():
    sub = subset_walk(2, F(1, 2))
    assert sub.pi == [F(1, 9), F(2, 9), F(2, 9), F(4, 9)]
    assert sorted(sub.eigenvalues) == sorted([F(1), F(-1, 2), F(-1, 2), F(1, 4)])
    # charpoly agrees with the closed-form multiset
    assert la.charpoly(subset_matrix(sub)) == la.poly_from_roots(sub.eigenvalues)


def test_subset_matrix_is_the_block_recursion():
    # the Kronecker power of [[0, 1], [p, 1-p]] is M -> [[0, M], [p M, (1-p) M]]
    # applied m times to [[1]], its zero blocks the Fraction 0
    for p in (F(1, 4), F(1, 3), F(1, 2), F(2, 3)):
        want = [[F(1)]]
        for m in range(1, 7):
            want = ([[F(0)] * len(want) + row for row in want]
                    + [[p * v for v in row] + [(1 - p) * v for v in row] for row in want])
            got = subset_matrix(subset_walk(m, p))
            assert got == want and all(type(v) is F for row in got for v in row), (m, p)


def test_built_laws_are_probability_laws():
    # every law the package builds is a list of non-negative Fractions summing to 1
    reversible = transition_matrix(GammaAB(1, 2), 6)
    not_reversible = lambda_walk([F(1), F(3, 5), F(3, 10), F(1, 20)])
    built = [
        (16, subset_walk(4, F(2, 3)).pi),
        (6, stationary(reversible)),
        (4, stationary(not_reversible)),
        (6, invariant_closed_form(DeltaAB(F(13, 2), 3), 6)),
        (6, left_side(family_sequence(GammaAB(1, 2), 6))[1]),
        (4, left_side([F(1), F(3, 5), F(3, 10), F(1, 20)], dmax=0)[1]),
    ]
    for n, law in built:
        assert type(law) is list and len(law) == n
        assert all(type(v) is F and v >= 0 for v in law)
        assert sum(law) == 1


def test_subset_walk_multiplicity():
    sub = subset_walk(3, F(1, 3))
    assert sub.eigenvalues.count(F(-1, 3)) == 3
    assert stationary(subset_matrix(sub)) == sub.pi
    assert detailed_balance(subset_matrix(sub), sub.pi)


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
def test_checked_walk_rejects_non_walks(p_rows, message):
    with pytest.raises(OutOfRange, match=message):
        checked_walk(p_rows)


def test_checked_walk_round_trips_subset_walks():
    for m in range(1, 6):
        for p in (F(1, 3), F(3, 4)):
            sub = subset_walk(m, p)
            assert checked_walk(subset_matrix(sub)) == subset_matrix(sub)


def _is_walk(p) -> bool:
    """P square, stochastic and anti-triangular."""
    n = len(p)
    return all(
        len(row) == n and sum(row) == 1 and min(row) >= 0 and not any(row[:n - 1 - x])
        for x, row in enumerate(p)
    )


def test_built_walks_are_stochastic_and_anti_triangular():
    # lambda_walk and the subset walk skip checked_walk: their construction is the proof
    for n in range(1, 7):
        for lam in stochastic_grid(n, 4):
            assert _is_walk(lambda_walk(lam))
    for m in range(1, 7):
        for p in (F(1, 3), F(3, 4)):
            assert _is_walk(subset_matrix(subset_walk(m, p)))
    assert not _is_walk([[F(1, 2), F(1, 2)], [0, 1]])


DIVISION_SPECS = [
    GammaAB(F(-1, 3), 2), GammaAB(1, F(-1, 2)), GammaAB(F(-1, 2), F(-1, 3)), GammaAB(2, F(2, 3)),
    GammaC(F(1, 3)), GammaC(1), GammaC(F(3, 2)),
    # domain edges 3, 11 and 4; integer b' gives zero weights, binom(1, k) = 0 for k >= 2
    DeltaAB(F(7, 2), F(5, 2)), DeltaAB(F(21, 2), F(43, 4)), DeltaAB(4, 2), DeltaAB(5, 3),
    Custom(5, {(0, 0): F(2), (0, 1): F(0), (1, 1): F(1, 3), (0, 2): F(5, 7), (2, 2): F(3),
               (1, 3): F(4), (3, 3): F(0), (0, 4): F(1, 2), (4, 4): F(9, 4)}),
]


def test_construction_matches_division_route():
    zeros = 0
    for spec in DIVISION_SPECS:
        top = min(15, domain_limit(spec))
        for n in range(1, top + 1):
            w, h = division_route(spec, n)
            assert transition_matrix(spec, n) == [row[::-1] for row in h]
            assert norm_table(spec, n) == [sum(row) for row in w]
            if not isinstance(spec, Custom):
                assert family_sequence(spec, n) == [h[d][d] for d in range(n)]
        zeros += sum(v == 0 for row in w for v in row)
    assert zeros > 10


def test_custom_weight_walk_roundtrip():
    table = {(0, 0): F(2), (0, 1): F(1), (1, 1): F(3)}
    assert transition_matrix(Custom(2, table), 2) == rows([[0, 1], ["3/4", "1/4"]])


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
    p = transition_matrix(spec, n)
    assert all(sum(row) == 1 for row in p)
    assert all(v >= 0 for row in p for v in row)
    assert all(p[x][z] == 0 for x in range(n) for z in range(n - 1 - x))
    report = ergodicity(p)
    if report.irreducible:
        pi = stationary(p)
        assert vecmat(pi, p) == pi
        if report.ergodic:
            assert detailed_balance(p, pi) == kolmogorov(p)
