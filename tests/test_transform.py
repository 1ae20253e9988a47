"""Binomial transforms, stochasticity, ADEP/GADEP, conjugators."""

import itertools
import operator
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involute import _linalg as la
from involute import transform, walk
from involute.errors import InvoluteError, NotStochastic, OutOfRange, SingularMatrix
from involute.exactnum import binom
from involute.spectral import signed_eigenvalues
from involute.transform import (
    LATTICE_BUDGET,
    _difference_rows,
    _dj_rows,
    _lattice_records,
    _scaled_check,
    _scaled_walk,
    adep_witness,
    binomial_transform,
    binomial_transform_witness,
    check_conjugator,
    gadep_counterexample,
    gadep_witness,
    is_stochastic,
    lambda_walk,
    property_report,
)
from involute.walk import ergodicity, stationary, transition_matrix
from involute.serialize import _rational_text, matrix_from_csv
from involute.weights import DeltaAB, GammaAB, GammaC, domain_limit, family_sequence

from oracles import (NAMED_SPECS, charpoly_faddeev_leverrier, identity, normalized,
                     pascal_column, pascal_inverse, pascal_matrix, spec_from_flags,
                     stochastic_grid, stochastic_lattice, uncut_lattice)

DATA_DIR = Path(__file__).parent / "data"
lambda_lists = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=8), min_size=1, max_size=8
)
rng_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_stochastic_lambda(n: int, rng, max_weight: int = 60) -> list:
    """Draw a stochastic eigenvalue sequence by sampling the bottom row.

    The bottom row of H determines non-negativity of the whole matrix and
    carries lambda triangularly, so a random point of the simplex maps to a
    uniform-ish stochastic sequence with lambda_0 = 1 automatically.
    """
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(n)]
        if any(weights):
            break
    total = sum(weights)
    # the bottom row of H is binom(n-1, y) D_{n-1-y}(y); undo the forward
    # differences from the tail, D_{k-1}(y) = D_k(y) + D_{k-1}(y+1)
    lam: list = [F(0)] * n
    row: list = []  # [D_{n-1-y}(y), ..., D_0(y)], highest difference first
    for y in range(n - 1, -1, -1):
        prev, row = row, [F(weights[y], total) / binom(n - 1, y)]
        for p in prev:
            row.append(row[-1] + p)
        lam[y] = row[-1]
    return lam


def alternating_sums(lam) -> list:
    """sum_e (-1)^e binom(z, e) lambda_{n-1-z+e} for z = 0..n-1, on Fractions."""
    n = len(lam)
    return [
        sum((-1) ** e * binom(z, e) * lam[n - 1 - z + e] for e in range(z + 1))
        for z in range(n)
    ]


def fraction_stochastic_check(lam) -> tuple:
    """(ok, witness, reason) of `is_stochastic`, decided on Fractions."""
    if lam[0] != 1:
        return False, None, f"lambda_0 = {lam[0]} != 1"
    for z, total in enumerate(alternating_sums(lam)):
        if total < 0:
            return False, z, f"alternating sum at z={z} is {total} < 0"
    return True, None, ""


def down_step(spec, n: int) -> list:
    """The package's H for a weight: its walk's rows of P, each reversed (H = P J)."""
    return [row[::-1] for row in transition_matrix(spec, n)]


def test_binomial_transform_examples():
    h = binomial_transform([F(1), F(1, 2), F(1, 3)])
    assert h == down_step(GammaAB(0, 0), 3)
    assert binomial_transform([F(1)] * 4) == identity(4)
    mu, nu = F(3, 5), F(1, 5)  # nu = 2 mu - 1
    h = binomial_transform([F(1), mu, nu])
    assert h == [
        [F(1), F(0), F(0)],
        [1 - mu, mu, F(0)],
        [F(0), 2 * (1 - mu), nu],
    ]


def test_lambda_walk_examples():
    assert lambda_walk([F(1), F(1, 2), F(1, 3), F(1, 4)]) == transition_matrix(GammaAB(0, 0), 4)
    assert lambda_walk([F(1), F(2, 3), F(4, 9), F(8, 27)]) == transition_matrix(GammaC(F(1, 2)), 4)
    assert lambda_walk([F(1)]) == [[F(1)]]


def test_family_down_steps_are_binomial_transforms():
    specs = [GammaAB(F(1, 2), F(-1, 2)), GammaAB(2, 1), GammaC(F(1, 3)), DeltaAB(5, 3)]
    for spec in specs:
        for n in (2, 4, 5):
            if isinstance(spec, DeltaAB) and n > 5:
                continue
            h = down_step(spec, n)
            lam = family_sequence(spec, n)
            assert h == binomial_transform(lam)
            assert binomial_transform_witness(h) is None


def test_is_stochastic_examples():
    assert is_stochastic([F(1), F(1, 2), F(1, 3), F(1, 4)])
    res = is_stochastic([F(1), F(1, 2), F(1, 2), F(3, 4)])
    assert not res and res.witness == 1
    assert is_stochastic([F(1), F(3, 5), F(3, 10), F(1, 20)])
    assert not is_stochastic([F(2), F(1)])


def test_alternating_sums_frozen():
    assert alternating_sums([F(1), F(1, 2), F(1, 3), F(1, 4)]) == [
        F(1, 4), F(1, 12), F(1, 12), F(1, 4)]
    assert alternating_sums([F(1), F(3, 5), F(3, 10), F(1, 20)]) == [
        F(1, 20), F(1, 4), F(1, 20), F(1, 20)]


def test_is_stochastic_matches_fraction_reference():
    # is_stochastic decides on lambda scaled by the lcm of its denominators;
    # verdict, witness and reason must be those of the Fraction sums
    cases = []
    # the bench's family sequences, each less 2^-40 at index 3 or 5, and the
    # same perturbation made large enough to break an alternating sum
    specs = [GammaAB(F(a), F(b)) for a in ("0", "1/2", "2") for b in ("0", "1/3", "3/2")]
    specs += [GammaC(F(c)) for c in ("1/3", "2")]
    for spec in specs:
        for n in (6, 9, 12):
            lam = family_sequence(spec, n)
            for d in (3, 5):
                for eps in (F(1, 2**40), F(1, 7), F(-1, 7)):
                    cases.append([*lam[:d], lam[d] - eps, *lam[d + 1:]])
    for n in (8, 11):
        for p, q in ((F(1, 2), F(2, 3)), (F(1, 3), F(3, 2))):
            lam = family_sequence(DeltaAB(n - 1 + p, n - 1 + q), n)
            cases += [[*lam[:d], lam[d] - F(1, 2**40), *lam[d + 1:]] for d in (3, 5)]
    # several large coprime denominators in one sequence, around stochastic ones
    rng = random.Random(29)
    primes = (1_000_003, 998_244_353, 2**61 - 1, 2**31 - 1)
    for n in (3, 5, 8, 12):
        for _ in range(20):
            lam = random_stochastic_lambda(n, rng)
            for d in range(1, n):
                lam[d] += F(rng.choice((-1, 1)), rng.choice(primes))
            cases.append(lam)
    cases += [[F(2), F(1)], [F(1, 3), F(1, 5)], [F(1), F(1, 2), F(0), F(0)], [F(1)]]
    verdicts = set()
    for lam in cases:
        res = is_stochastic(lam)
        expected = fraction_stochastic_check(lam)
        assert (res.ok, res.witness, res.reason) == expected, lam
        verdicts.add((expected[0], expected[1] is None))
    # passing sequences, failing alternating sums and a failing lambda_0 all occur
    assert verdicts == {(True, True), (False, False), (False, True)}


def test_scaled_check_keeps_the_rows_it_walks():
    # the difference rows of L * lambda up to and including the first failing
    # one, which `_scaled_walk` reads M from; none when lambda_0 != 1 stops
    # the check before a row, and none past the table budget
    cases = [[F(v, scale) for v in scaled] for n in range(1, 7)
             for scale, lattice in [stochastic_lattice(n, 6)] for scaled in lattice]
    cases += [[*lam[:d], lam[d] + F(1, 7), *lam[d + 1:]]
              for lam in cases if len(lam) > 2 for d in range(1, len(lam))]
    cases += [[F(2), F(1)], [F(1), F(1, 2), F(1, 2), F(3, 4)], [F(1, 3), F(1, 5)]]
    failing = set()
    for lam in cases:
        coerced, scale, check, table = _scaled_check(lam)
        assert coerced == lam, lam
        assert scale == la.integer_row(lam)[1], lam
        rows = list(_difference_rows(la.integer_row(lam)[0]))
        stop = len(rows) if check else 0 if check.witness is None else check.witness + 1
        assert table == rows[:stop], lam
        failing.add(None if check else check.witness is None)
    assert failing == {None, True, False}
    over = [F(1)] + [F(0)] * la.TABLE_BUDGET
    check, table = _scaled_check(over)[2:]
    assert check and table == []
    with pytest.raises(OutOfRange, match="table budget"):
        _scaled_walk(over)


def test_lambda_walk_entry_routes_agree():
    # the text and float rows of a lambda walk come from the integer pairs
    # the Fraction rows come from: each text is str of its Fraction and each
    # float float() of it, bit for bit, and a refused sequence is refused alike
    lams = [[F(v, scale) for v in scaled] for n in range(1, 7)
            for scale, lattice in [stochastic_lattice(n, 6)] for scaled in lattice]
    lams += [[F(1), F(1, 2), F(1, 2), F(3, 4)], [F(2), F(1)], [F(1), F(1, 2), F(0), F(0)],
             [F(1)] * 3, [F(1)], [F(1), F(-1, 2)], [F(1, 3) ** k for k in range(6)],
             [F(1, 2) ** k for k in range(60)], [F(1)] + [F(0)] * 1000]
    refused = 0
    for lam in lams:
        try:
            exact = lambda_walk(lam)
        except InvoluteError as exc:
            for entry in (_rational_text, operator.truediv):
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    lambda_walk(lam, entry)
            refused += 1
            continue
        assert lambda_walk(lam, _rational_text) == [list(map(str, row)) for row in exact], lam
        floats = lambda_walk(lam, operator.truediv)
        assert [[v.hex() for v in row] for row in floats] == [
            [float(v).hex() for v in row] for row in exact], lam
    assert refused == 5


@given(lambda_lists)
@settings(max_examples=60)
def test_stochasticity_equivalence(lam):
    lam = [F(1)] + lam[1:]
    p = [row[::-1] for row in binomial_transform(lam)]
    direct = all(v >= 0 for row in p for v in row) and all(sum(row) == 1 for row in p)
    assert bool(is_stochastic(lam)) == direct


def test_is_ergodic_lambda_examples():
    assert ergodicity(lambda_walk([F(1), F(1, 2), F(1, 3), F(1, 4)])).ergodic
    # the alternating sum at z = 3 is -1/2: not a walk at all
    with pytest.raises(NotStochastic, match="alternating sum at z=3"):
        lambda_walk([F(1), F(1, 2), F(0), F(0)])
    # lambda = (1, 1) gives the deterministic flip: 0 is accessible but the
    # walk is periodic, so it does not mix
    assert not ergodicity(lambda_walk([F(1), F(1)])).ergodic


@given(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8), min_size=1, max_size=16)
)
@settings(max_examples=30, deadline=None)
def test_binomial_transform_is_pascal_conjugate(lam):
    n = len(lam)
    diag = la.zeros(n)
    for d in range(n):
        diag[d][d] = lam[d]
    assert binomial_transform(lam) == la.matmul(la.matmul(pascal_matrix(n), diag),
                                                pascal_inverse(n))


@given(st.integers(min_value=1, max_value=10), rng_seeds)
@settings(max_examples=40, deadline=None)
def test_truncations_are_top_right_blocks(n, seed):
    lam = random_stochastic_lambda(n, random.Random(seed))
    p = lambda_walk(lam)
    for m in range(1, n + 1):
        block = [row[n - m :] for row in p[:m]]
        assert lambda_walk(lam[:m]) == block


def test_ergodic_lambda_structure():
    rng = random.Random(23)
    sampled = [random_stochastic_lambda(n, rng) for n in (3, 4, 6, 8) for _ in range(25)]
    grid = [lam for n in (3, 4, 5) for lam in stochastic_grid(n, 4)]
    ergodic = 0
    for lam in sampled + grid:
        if not ergodicity(lambda_walk(lam)).ergodic:
            continue
        ergodic += 1
        n = len(lam)
        s = 1
        while s < n and lam[n - 1 - s] == lam[n - 1]:
            s += 1
        assert 2 * s <= n and lam[n - 1] > 0
        assert all(lam[d] > lam[d + 1] for d in range(n - s))
    assert ergodic > 100


def test_binomial_transform_recurrence():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 8)
        lam = [F(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(n)]
        h = binomial_transform(lam)
        for x in range(n - 1):
            for y in range(x + 1):
                lhs = h[x + 1][y] / binom(x + 1, y)
                rhs = h[x][y] / binom(x, y) - h[x + 1][y + 1] / binom(x + 1, y + 1)
                assert lhs == rhs
        for x in range(n - 1):
            assert h[x + 1][x] == (x + 1) * (lam[x] - lam[x + 1])


def antidiag(n):
    """J(n): ones on the anti-diagonal, the matrix of x -> n-1-x."""
    return [[F(1) if x + z == n - 1 else F(0) for z in range(n)] for x in range(n)]


def test_pascal_identities():
    for n in (1, 2, 5, 12, 32):
        assert la.matmul(pascal_matrix(n), pascal_inverse(n)) == identity(n)
    for n in range(1, 13):
        conj = la.matmul(la.matmul(pascal_inverse(n), antidiag(n)), pascal_matrix(n))
        expected = [
            [(-1) ** x * binom(n - 1 - x, n - 1 - y) for y in range(n)] for x in range(n)
        ]
        assert conj == expected


@given(lambda_lists)
@settings(max_examples=40)
def test_round_trip_binomial_transform(lam):
    assert binomial_transform_witness(binomial_transform(lam)) is None
    assert gadep_witness(binomial_transform(lam)) is None


def test_strictly_stochastic_support():
    lam = [F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
    n = len(lam)
    p = lambda_walk(lam)
    assert all(lam[d] > lam[d + 1] for d in range(n - 1))
    for x in range(n):
        for z in range(n):
            assert (p[x][z] > 0) == (x + z >= n - 1)


def test_adep_witness_examples():
    h = down_step(GammaAB(0, 0), 4)
    assert adep_witness(h) is None
    lj = la.matmul(h, antidiag(4))
    signed = signed_eigenvalues(family_sequence(GammaAB(0, 0), 4))
    assert la.charpoly(lj) == la.poly_from_roots(signed)
    assert adep_witness(gadep_counterexample("L4", F(1))) is None
    # 2x2 hand oracle: [[1,0],[1,-1]] J has char poly X^2 - X + 1
    assert adep_witness([[F(1), F(0)], [F(1), F(-1)]]) is not None


def _fraction_adep(rows) -> bool:
    """ADEP as the Fraction polynomials read it: charpoly(L J) against
    prod_d (X - (-1)^d L[d][d])."""
    target = la.poly_from_roots([(-1) ** d * row[d] for d, row in enumerate(rows)])
    return la.charpoly([row[::-1] for row in rows]) == target


def test_integer_adep_gives_the_fraction_verdict():
    verdicts = []
    for flags in NAMED_SPECS:
        spec = spec_from_flags(flags)
        for n in range(1, 13):
            if n <= domain_limit(spec):
                h = down_step(spec, n)
                assert (adep_witness(h) is None) is _fraction_adep(h) is True, (flags, n)
    # every principal block of the counterexamples: the top-left ones keep
    # ADEP (they have GADEP), trailing ones from size 2 or 3 lose it
    for which in ("L4", "H5"):
        for tau in (F(0), F(1, 4), F(1), F(-1, 3), F(3, 7)):
            m = gadep_counterexample(which, tau)
            for lo in range(len(m)):
                for hi in range(lo + 1, len(m) + 1):
                    block = [row[lo:hi] for row in m[lo:hi]]
                    verdicts.append(adep_witness(block) is None)
                    assert verdicts[-1] == _fraction_adep(block), (which, tau, lo, hi)
    assert True in verdicts and False in verdicts
    for name in ("block2_fails.csv", "fails_at_n.csv"):
        m = matrix_from_csv((DATA_DIR / name).read_text())
        for k in range(1, len(m) + 1):
            block = la.top_left(m, k)
            assert (adep_witness(block) is None) == _fraction_adep(block), (name, k)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_integer_adep_on_random_lower_triangular(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    rows = [[data.draw(entry) if y <= x else F(0) for y in range(n)] for x in range(n)]
    assert (adep_witness(rows) is None) == _fraction_adep(rows)
    _assert_witnesses_match_the_oracles(rows)


def _assert_witnesses_match_the_oracles(rows):
    """The three witness functions against readings of the definitions: the
    top-left blocks whose Faddeev-LeVerrier charpoly of L J is not
    prod_d (X - (-1)^d L[d][d]), and B Diag(diagonal) B^-1 entry by entry."""
    n = len(rows)
    failing = [k for k in range(1, n + 1) if charpoly_faddeev_leverrier(
        [row[::-1] for row in la.top_left(rows, k)]) != la.poly_from_roots(
        [(-1) ** d * rows[d][d] for d in range(k)])]
    first = failing[0] if failing else None
    assert gadep_witness(rows) == first
    assert adep_witness(rows) == (first if n in failing else None)
    diag = [[rows[x][x] if x == y else F(0) for y in range(n)] for x in range(n)]
    expected = la.matmul(la.matmul(pascal_matrix(n), diag), pascal_inverse(n))
    off = [(x, y) for x in range(n) for y in range(x + 1) if rows[x][y] != expected[x][y]]
    assert binomial_transform_witness(rows) == (off[0] if off else None)


def test_witnesses_match_the_oracles():
    for flags in NAMED_SPECS:
        spec = spec_from_flags(flags)
        for n in range(1, 13):
            if n <= domain_limit(spec):
                _assert_witnesses_match_the_oracles(down_step(spec, n))
    for which in ("L4", "H5"):
        for tau in (F(0), F(1, 4), F(1), F(-1, 3), F(3, 7)):
            m = gadep_counterexample(which, tau)
            for lo in range(len(m)):
                for hi in range(lo + 1, len(m) + 1):
                    _assert_witnesses_match_the_oracles([row[lo:hi] for row in m[lo:hi]])
    for name, witness in (("block2_fails.csv", 2), ("fails_at_n.csv", 3)):
        m = matrix_from_csv((DATA_DIR / name).read_text())
        assert gadep_witness(m) == witness
        _assert_witnesses_match_the_oracles(m)


def test_gadep_counterexamples():
    l0 = gadep_counterexample("L4", 0)
    assert l0 == binomial_transform([F(1), F(2, 3), F(1, 4), F(1, 5)])
    l1 = gadep_counterexample("L4", 1)
    assert l1[3] == [F(-9, 20), F(19, 10), F(7, 20), F(1, 5)]
    for tau in (F(1, 4), F(1, 2), F(1)):
        for which in ("L4", "H5"):
            mat = gadep_counterexample(which, tau)
            assert gadep_witness(mat) is None
            assert binomial_transform_witness(mat) is not None
    # H5's top-left 4x4 is the transform of (1, 1/2, 1/2-tau, 1/2-tau)
    tau = F(1, 4)
    h5 = gadep_counterexample("H5", tau)
    expected = binomial_transform([F(1), F(1, 2), F(1, 2) - tau, F(1, 2) - tau])
    assert la.top_left(h5, 4) == expected


def test_gadep_family_matrices():
    assert gadep_witness(down_step(DeltaAB(4, 2), 4)) is None
    assert gadep_witness(down_step(GammaAB(F(1, 2), 2), 6)) is None


def test_binomial_transform_witness_examples():
    assert binomial_transform_witness(down_step(GammaAB(1, 0), 4)) is None
    assert binomial_transform_witness(gadep_counterexample("L4", 1)) is not None
    assert binomial_transform_witness(identity(4)) is None


def test_property_report_implications():
    for mat in (
        gadep_counterexample("L4", F(1, 4)),
        gadep_counterexample("H5", F(1)),
        down_step(GammaAB(0, 0), 5),
        [[F(1), F(0)], [F(1), F(-1)]],
    ):
        report = property_report(mat)
        if report["is_binomial_transform"]:
            assert report["gadep"]
        if report["gadep"]:
            assert report["adep"]
        # the JSON keeps both names of the one property
        assert list(report) == ["adep", "gadep", "eigenbasis_action", "is_binomial_transform",
                                "witness"]
        assert report["eigenbasis_action"] is report["is_binomial_transform"]
        assert report["is_binomial_transform"] is (binomial_transform_witness(mat) is None)
    report = property_report(gadep_counterexample("L4", F(1)))
    assert report["gadep"] and not report["is_binomial_transform"]
    assert report["witness"] is not None


def test_check_conjugator_examples():
    assert check_conjugator(pascal_matrix(4), global_check=True)
    b5 = pascal_matrix(5)
    b5[4][2] = F(7)
    assert not check_conjugator(b5, global_check=True)
    assert not check_conjugator(identity(2))
    with pytest.raises(SingularMatrix):
        check_conjugator([[F(0)]])
    for shape in ([[1, 0, 5], [1, 1, 0]], [[1, 0], [1, 1], [1, 1]]):
        for global_check in (False, True):
            with pytest.raises(OutOfRange, match="matrix must be square"):
                check_conjugator(shape, global_check=global_check)


def test_check_conjugator_budget(monkeypatch):
    budget = transform.CONJUGATOR_BUDGET
    # at the budget the Pascal conjugator is checked, globally too
    assert check_conjugator(pascal_matrix(budget))
    assert check_conjugator(pascal_matrix(budget), global_check=True)
    # one past it both variants refuse before their first elimination
    eliminations = []
    monkeypatch.setattr(la, "rref", lambda m: eliminations.append(m))
    for global_check in (False, True):
        with pytest.raises(OutOfRange, match=f"a conjugator check needs n <= {budget}, "
                                             f"the conjugator budget, got n={budget + 1}"):
            check_conjugator(pascal_matrix(budget + 1), global_check=global_check)
    assert eliminations == []


def test_pascal_column():
    assert pascal_column(5, 2) == [F(0), F(0), F(1), F(3), F(6)]


def test_random_stochastic_lambda_is_stochastic():
    rng = random.Random(11)
    for n in (3, 5, 8):
        for _ in range(25):
            lam = random_stochastic_lambda(n, rng)
            assert is_stochastic(lam)


def test_random_stochastic_lambda_inverts_the_bottom_row():
    for n in (1, 2, 5, 9):
        lam = random_stochastic_lambda(n, random.Random(n))
        draws = random.Random(n)
        weights = [draws.randint(0, 60) for _ in range(n)]
        assert binomial_transform(lam)[-1] == [F(w, sum(weights)) for w in weights]


def test_stochastic_grid_matches_filtered_grid():
    # oracle: every non-increasing tuple over the Farey fractions, kept when
    # its binomial alternating sums, on Fractions, are all non-negative;
    # with n = 6 and 7 the lattice cuts by its ceiling at j up to 4 and 5
    sizes = [(den, n) for den in range(1, 7) for n in range(1, 6)]
    sizes += [(den, n) for den in range(1, 5) for n in (6, 7)]
    for den, n in sizes:
        farey = {F(p, q) for q in range(1, den + 1) for p in range(q + 1)}
        values = sorted(farey, reverse=True)
        oracle = [
            [F(1), *combo]
            for combo in itertools.combinations_with_replacement(values, n - 1)
            if min(alternating_sums([F(1), *combo])) >= 0
        ]
        grid = list(stochastic_grid(n, den))
        assert sorted(grid) == sorted(oracle)
        assert len({tuple(lam) for lam in grid}) == len(grid)
    assert [F(1), F(1), F(1)] in list(stochastic_grid(3, 1))


def test_stochastic_lattice_is_sorted_integer_grid():
    for n, den in ((1, 1), (3, 6), (5, 8)):
        scale, lattice = stochastic_lattice(n, den)
        assert scale == {1: 1, 6: 60, 8: 840}[den]
        assert all(type(v) is int and t[0] == scale for t in lattice for v in t)
        assert lattice == sorted(set(lattice))


def test_stochastic_lattice_budget():
    # n = 5 at den 16 (28,350 visited suffixes), n = 4 at den 20 (45,945) and
    # n = 6 at den 16 (26,743) fit the budget; n = 6 at den 16 equals the
    # enumeration without the ceiling, which visits 670,527 suffixes
    scale, lattice = stochastic_lattice(5, 16)
    assert len(lattice) == 23089
    assert len(stochastic_lattice(4, 20)[1]) == 42879
    scale, lattice = stochastic_lattice(6, 16)
    assert len(lattice) == 18719
    assert lattice == uncut_lattice(6, 16)
    # n = 6 at den 30 visits 7,032,701 suffixes, n = 4 at den 40 2,264,857
    # and n = 3 at den 60 306,701: each is refused before the enumeration ends
    for n, den in ((6, 30), (4, 40), (3, 60)):
        with pytest.raises(OutOfRange, match=f"more than {LATTICE_BUDGET} lattice suffixes"):
            stochastic_lattice(n, den)


def test_lattice_records_hand_each_record_its_difference_table():
    # the tables the enumeration shares along each path are the records' own
    # difference tables, row for lambda_0 = L included
    sizes = [(n, den) for n in range(1, 7) for den in range(1, 7)] + [(5, 16)]
    for n, den in sizes:
        scale, records = _lattice_records(n, den)
        records = list(records)
        assert all(table == list(_difference_rows(scaled)) for scaled, table in records)
        if (n, den) != (5, 16):  # the uncut enumeration visits 273,416 suffixes there
            assert sorted(scaled for scaled, _ in records) == uncut_lattice(n, den)


def test_lattice_visit_counts(monkeypatch):
    # each grid is admitted at exactly its count of visited suffixes and
    # refused one below it, before any record is built
    for n, den, visits in ((5, 16, 28_350), (6, 16, 26_743), (4, 20, 45_945)):
        monkeypatch.setattr(transform, "LATTICE_BUDGET", visits)
        _lattice_records(n, den)
        monkeypatch.setattr(transform, "LATTICE_BUDGET", visits - 1)
        with pytest.raises(OutOfRange, match=f"more than {visits - 1} lattice suffixes"):
            _lattice_records(n, den)


def test_difference_table_gives_the_walks_verdict():
    # P[x][z] = binom(x, y) M[x][z] with y = n-1-z, and binom(x, y) =
    # x! / (y! k!) with k = x + z - (n-1) shared by P[z][x]: so L * M has P's
    # verdict, tree count and reachability, pi_x is proportional to
    # binom(n-1, x) rho_x, and the top-right k-block of M is M of lambda[:k]
    lams = [lam for n in range(1, 8) for lam in stochastic_grid(n, 6)]
    specs = (GammaAB(1, F(1, 3)), GammaAB(0, 0), GammaC(F(1, 2)), DeltaAB(F(21, 2), F(43, 4)))
    lams += [family_sequence(spec, n) for spec in specs for n in (3, 6, 10)]
    counts = {"reversible": 0, "one tree": 0, "not reversible": 0, "rho alone is pi": 0}
    for lam in lams:
        n = len(lam)
        p = lambda_walk(lam)
        exact = _dj_rows(list(_difference_rows(lam)))
        scaled = _scaled_walk(lam)[1]
        assert all(type(v) is int for row in scaled for v in row)
        scale = la.integer_row(lam)[1]
        assert scaled == [tuple(v * scale for v in row) for row in exact]
        for x in range(n):
            for z in range(n):
                y, k = n - 1 - z, x + z - (n - 1)
                assert p[x][z] == (binom(x, y) * exact[x][z] if k >= 0 else 0), (lam, x, z)
        for k in range(1, n + 1):
            block = [row[n - k:] for row in exact[:k]]
            assert block == _dj_rows(list(_difference_rows(lam[:k]))), (lam, k)
        assert walk._zero_reachable(scaled) == walk._zero_reachable(p), lam
        found, by_table = walk._potentials(p), walk._potentials(scaled)
        assert (found is None) == (by_table is None), lam
        if found is None:
            counts["not reversible"] += 1
            continue
        counts["reversible"] += 1
        assert by_table[1] == found[1], lam
        if found[1] == 1:
            counts["one tree"] += 1
            rho = [F(a, b) for a, b in by_table[0]]
            pi = stationary(p)
            assert normalized([binom(n - 1, x) * r for x, r in enumerate(rho)]) == pi, lam
            counts["rho alone is pi"] += normalized(rho) == pi
    # 268 sequences; the binomial factor changes pi in 59 of the 72 one-tree walks
    assert counts == {"reversible": 77, "one tree": 72, "not reversible": 191,
                      "rho alone is pi": 13}


def test_stochastic_grid_rejects_empty_grids():
    for n, den in ((3, 0), (3, -2), (0, 8)):
        with pytest.raises(OutOfRange):
            stochastic_lattice(n, den)
