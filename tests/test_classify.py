"""Reversibility classification and the desk-scale conjecture sweep."""

from fractions import Fraction as F

import pytest

from involute import classify, transform
from involute.classify import (
    IdentityWalk,
    NotClassified,
    SearchRecord,
    _classify,
    _first_mismatch,
    _lead_gap,
    _top_right_submatrix,
    a_prime_ladder,
    classification_label,
    classify_walk,
    conjecture_search,
    exceptional_ladder,
    is_globally_reversible,
    nu_ladder,
    params_from_mu_nu,
)
from involute.errors import NotStochastic, OutOfRange, ZeroNotAccessible
from involute.transform import _dj_rows, _lattice_records, _scaled_walk, lambda_walk
from involute.walk import _potentials
from involute.weights import UNBOUNDED, DeltaAB, GammaAB, GammaC, domain_limit, family_sequence

from oracles import (
    NAMED_SPECS,
    a_from_mu_nu,
    b_from_mu_nu,
    detailed_balance,
    oracle_dict,
    params_by_fractions,
    reversible_with_some_distribution,
    spec_from_flags,
    stochastic_grid,
    zero_accessible,
)


def test_params_from_mu_nu_examples():
    assert params_from_mu_nu(F(2, 3), F(1, 2), 4) == GammaAB(F(1), F(0))
    assert params_from_mu_nu(F(1, 3), F(1, 9), 4) == GammaC(F(2))
    assert params_from_mu_nu(F(2, 3), F(10, 23), 10) == DeltaAB(F(17), 9)


def test_params_from_mu_nu_range_errors():
    with pytest.raises(OutOfRange):
        params_from_mu_nu(F(1), F(1, 2), 4)
    with pytest.raises(OutOfRange):
        params_from_mu_nu(F(1, 2), F(1, 2), 4)
    with pytest.raises(OutOfRange):
        params_from_mu_nu(F(1, 2), F(1, 4), 2)


def test_params_round_trip_mu_nu():
    # the classified family reproduces (mu, nu) as lambda_1, lambda_2
    samples = [
        (F(2, 3), F(1, 2), 4),
        (F(3, 4), F(5, 8), 5),
        (F(1, 2), F(1, 4), 4),
        (F(3, 4), F(13, 24), 3),
        (F(2, 3), F(10, 23), 10),
    ]
    for mu, nu, n in samples:
        spec = params_from_mu_nu(mu, nu, n)
        assert not isinstance(spec, NotClassified)
        assert family_sequence(spec, 2)[1] == mu
        assert family_sequence(spec, 3)[2] == nu


def test_params_from_mu_nu_matches_fraction_oracle():
    # the integer (mu, nu) split against the Fraction formulas, on every
    # pair of the den <= 12 grid and a few negative nu, for n = 3..8: the
    # same spec type and parameters, or the same NotClassified reason, or
    # the same OutOfRange message
    grid = sorted({F(p, q) for q in range(1, 13) for p in range(q + 1)})
    kinds = {}
    for mu in grid:
        for nu in grid + [F(-1, 2), F(-1, 12)]:
            for n in range(3, 9):
                try:
                    expected = params_by_fractions(mu, nu, n)
                except OutOfRange as exc:
                    with pytest.raises(OutOfRange) as got:
                        params_from_mu_nu(mu, nu, n)
                    assert str(got.value) == str(exc)
                    continue
                got = params_from_mu_nu(mu, nu, n)
                assert type(got) is type(expected) and got == expected, (mu, nu, n)
                ladder = isinstance(got, DeltaAB) and got.b_prime.denominator == 1
                kinds[type(got), ladder] = kinds.get((type(got), ladder), 0) + 1
    assert set(kinds) == {(GammaAB, False), (GammaC, False), (DeltaAB, False),
                          (DeltaAB, True), (NotClassified, False)}


def test_ladder_clause_never_decides_alone():
    # params_from_mu_nu keeps only the domain test; the oracle also keeps the
    # ladder clause (integer b' below floor((1 - mu)/mu (n - 2)) + 2).  On
    # every delta pair of the den <= 24 grid with an integer b', for
    # n = 3..40, the two agree, so the clause never rejects a spec alone.
    grid = sorted({F(p, q) for q in range(1, 25) for p in range(1, q)})
    pairs = [(mu, nu) for mu in grid for nu in [F(0)] + grid
             if nu < mu * mu and (-b_from_mu_nu(mu, nu)).denominator == 1]
    cut = kept = 0
    for mu, nu in pairs:
        for n in range(3, 41):
            expected = params_by_fractions(mu, nu, n)
            assert params_from_mu_nu(mu, nu, n) == expected, (mu, nu, n)
            if isinstance(expected, NotClassified):
                cut += 1
            else:
                kept += 1
    assert cut > 0 and kept > 0


def test_mu_nu_fraction_formulas_invert_family_eigenvalues():
    # the oracle's closed forms read a and b back from gamma(a, b)
    for a, b in ((F(1), F(0)), (F(1, 3), F(5, 2)), (F(-1, 2), F(7))):
        lam = family_sequence(GammaAB(a, b), 3)
        assert (a_from_mu_nu(lam[1], lam[2]), b_from_mu_nu(lam[1], lam[2])) == (a, b)


def test_exceptional_ladder_reference_table():
    ladder = exceptional_ladder(F(2, 3), 10)
    assert ladder == [
        (9, F(10, 23), F(17)),
        (8, F(13, 30), F(15)),
        (7, F(22, 51), F(13)),
        (6, F(3, 7), F(11)),
    ]
    assert exceptional_ladder(F(2, 3), 3) == [(2, F(1, 3), F(3))]


def test_ladder_monotone_to_mu_squared():
    mu = F(2, 3)
    for m in range(2, 40):
        assert nu_ladder(m, mu) < nu_ladder(m + 1, mu) < mu * mu
    assert a_prime_ladder(2, F(2, 3)) == 3


def test_classify_walk_examples():
    assert classify_walk([F(1), F(1, 2), F(1, 3), F(1, 4)]) == GammaAB(F(0), F(0))
    assert classify_walk([F(1), F(2, 3), F(4, 9), F(8, 27)]) == GammaC(F(1, 2))
    assert classify_walk([F(1), F(3, 4), F(1, 2), F(1, 4)]) == DeltaAB(F(4), 2)


def test_classify_walk_errors():
    with pytest.raises(OutOfRange):
        classify_walk([F(1), F(1, 2)])
    with pytest.raises(NotStochastic):
        classify_walk([F(1), F(1, 2), F(1, 2), F(3, 4)])
    with pytest.raises(ZeroNotAccessible):
        classify_walk([F(1), F(1, 2), F(1, 4), F(0)])


def test_classify_walk_identity():
    # J(n) has no single closed class, yet it is the identity walk: the
    # identity is decided before reachability
    for n in (3, 4, 7):
        assert classify_walk([F(1)] * n) == IdentityWalk()
        assert _classify([F(1)] * n, False) == IdentityWalk()
    with pytest.raises(ZeroNotAccessible):
        _classify([F(1), F(1, 2), F(1, 2), F(1, 2)], False)


def test_classify_walk_rejects_near_family():
    # correct (mu, nu) for gamma(0,0) but a perturbed tail
    result = classify_walk([F(1), F(1, 2), F(1, 3), F(1, 5)])
    assert isinstance(result, NotClassified)


def test_round_trip_gamma_ab():
    values = [F(-1, 2), F(0), F(1, 2), F(1), F(2)]
    for a in values:
        for b in values:
            spec = GammaAB(a, b)
            for n in range(3, 9):
                assert classify_walk(family_sequence(spec, n)) == GammaAB(a, b)


def test_round_trip_gamma_c_and_delta():
    for c in (F(1, 2), F(1), F(2)):
        for n in range(3, 9):
            assert classify_walk(family_sequence(GammaC(c), n)) == GammaC(c)
    assert classify_walk(family_sequence(DeltaAB(4, 2), 4)) == DeltaAB(F(4), 2)
    assert classify_walk(family_sequence(DeltaAB(5, 3), 5)) == DeltaAB(F(5), 3)
    spec = DeltaAB(F(7, 2), F(5, 2))
    assert classify_walk(family_sequence(spec, 3)) == DeltaAB(F(7, 2), F(5, 2))
    # an integer b' is printed as the ladder index m
    assert classification_label(DeltaAB(4, 2)) == "delta(a'=4, m=2)"
    assert classification_label(spec) == "delta(a'=7/2, b'=5/2)"


def test_is_globally_reversible_examples():
    assert is_globally_reversible(family_sequence(GammaAB(0, 0), 5))
    assert not is_globally_reversible([F(1), F(3, 5), F(3, 10), F(1, 20)])
    assert is_globally_reversible([F(1), F(2, 3), F(1, 3)])


def test_classify_walk_coerces_each_entry_once(monkeypatch):
    # the stochastic check coerces the sequence, and classify_walk reads the
    # Fractions it returns, mu and nu included
    calls = []
    for module in (classify, transform):
        monkeypatch.setattr(module, "as_rational",
                            lambda v, coerce=module.as_rational: calls.append(v) or coerce(v))
    assert classify_walk([F(1), F(1, 2), F(1, 4), F(1, 8)]) == GammaC(1)
    assert len(calls) == 4


def test_top_right_submatrix_is_the_truncation_walk():
    # the m x m top-right block of the integer L * M is the L_m * M of
    # lambda_0..lambda_{m-1}, times L / L_m, L_m the truncation's own lcm
    import math

    for lam in (family_sequence(GammaAB(1, F(1, 3)), 7), [F(1), F(3, 5), F(3, 10), F(1, 20)]):
        p = _scaled_walk(lam)[1]
        scale = math.lcm(*(v.denominator for v in lam))
        for m in range(2, len(lam) + 1):
            factor = scale // math.lcm(*(v.denominator for v in lam[:m]))
            expected = [tuple(v * factor for v in row) for row in _scaled_walk(lam[:m])[1]]
            assert _top_right_submatrix(p, m) == expected, (lam, m)


def test_ladder_point_walk_is_globally_reversible():
    # the mu = 2/3 ladder entry with 9 bands at n = 10
    spec = DeltaAB(17, 9)
    lam = family_sequence(spec, 10)
    assert lam[1] == F(2, 3) and lam[2] == F(10, 23)
    assert is_globally_reversible(lam)
    assert classify_walk(lam) == DeltaAB(F(17), 9)


def test_round_trip_half_integer_delta():
    spec = DeltaAB(F(9, 2), F(7, 2))
    for n in (3, 4):
        lam = family_sequence(spec, n)
        assert classify_walk(lam) == DeltaAB(F(9, 2), F(7, 2))
        assert is_globally_reversible(lam)


def test_globally_reversible_errors():
    with pytest.raises(NotStochastic):
        is_globally_reversible([F(1), F(1, 2), F(1, 2), F(3, 4)])
    with pytest.raises(ZeroNotAccessible):
        is_globally_reversible([F(1), F(1, 2), F(0)])


def test_conjecture_search_n3_small_grid():
    summary = conjecture_search(3, max_denominator=6)
    assert summary.stochastic > 0
    assert summary.reversible > 0
    assert summary.unclassified_reversible == []
    # gamma(1,1) eigenvalues appear in the n=4 grid story: verify directly
    lam = family_sequence(GammaAB(1, 1), 4)
    assert lam == [F(1), F(1, 2), F(3, 10), F(1, 5)]
    assert classify_walk(lam) == GammaAB(F(1), F(1))


def _fraction_sweep(n, max_denominator):
    """Oracle: the sweep on Fractions, with a normalized law per walk,
    reachability by fixed point and a final sort of the records by their
    eigenvalue lists."""
    records = []
    for lam in stochastic_grid(n, max_denominator):
        p = lambda_walk(lam)
        reversible, _ = reversible_with_some_distribution(p)
        classification = _classify(lam, zero_accessible(p)) if reversible else None
        records.append(SearchRecord(lam, reversible, classification))
    records.sort(key=lambda r: r.lam)
    return records


def test_conjecture_search_matches_fraction_oracle():
    reversible = 0
    for n in range(3, 6):
        for den in range(1, 9):
            expected = [oracle_dict(r) for r in _fraction_sweep(n, den)]
            got = [oracle_dict(r) for r in conjecture_search(n, max_denominator=den).records]
            assert got == expected, (n, den)
            reversible += sum(r["reversible"] for r in got)
    assert reversible > 0


def test_sweep_verdict_on_m_columns_is_that_of_m():
    # conjecture_search runs the potentials on the table rows padded to
    # length n, the columns of M: M^T has M's support and is balanced by
    # 1/phi, so on every lattice record at n <= 8 and den <= 8 the verdict
    # and the tree count are those of M's rows (`_dj_rows`), and the
    # potentials are their reciprocals; the sweep's records carry that verdict
    records, trees = 0, set()
    for n in range(3, 9):
        for den in range(1, 9):
            _, stream = _lattice_records(n, den)
            verdicts = []
            for scaled, table in stream:
                m_rows = _dj_rows(table)
                columns = [[0] * (n - 1 - z) + row for z, row in enumerate(table)]
                assert columns == [list(col) for col in zip(*m_rows)], scaled
                by_rows, by_columns = _potentials(m_rows), _potentials(columns)
                if by_rows is None:
                    assert by_columns is None, scaled
                else:
                    assert by_columns[1] == by_rows[1], scaled
                    assert by_columns[0] == [(b, a) for a, b in by_rows[0]], scaled
                    trees.add(by_rows[1])
                verdicts.append((scaled, by_rows is not None))
            verdicts.sort()
            found = conjecture_search(n, max_denominator=den).records
            assert [r.reversible for r in found] == [v for _, v in verdicts], (n, den)
            records += len(found)
    assert records == 2320 and trees == {1, 2, 3, 4}


def test_conjecture_search_never_searches_reachability(monkeypatch):
    # the potentials' tree count decides reachability in the sweep, so the
    # reach-set closure never runs; classify_walk still runs it, which shows
    # the spy is live
    from involute import classify, walk

    seen = []
    reachable = walk._zero_reachable

    def spy(w):
        seen.append(len(w))
        return reachable(w)

    monkeypatch.setattr(walk, "_zero_reachable", spy)
    monkeypatch.setattr(classify, "_zero_reachable", spy)
    summary = conjecture_search(4, max_denominator=8)
    assert summary.reversible > 0 and seen == []
    assert classify_walk(family_sequence(GammaAB(1, 1), 4)) == GammaAB(F(1), F(1))
    assert seen == [4]


def test_conjecture_search_range():
    with pytest.raises(OutOfRange):
        conjecture_search(9)


def test_classified_points_are_globally_reversible():
    # whatever params_from_mu_nu returns must itself be a globally
    # reversible stochastic walk reproducing (mu, nu); mu has denominator
    # 9..40, off the den <= 8 sweep grid, and nu lies anywhere below mu, on
    # mu^2 or on the exceptional ladder
    import random

    from involute.transform import is_stochastic

    rng = random.Random(1618)
    kinds = set()
    checked = perturbed = 0
    for trial in range(300):
        n = rng.randint(3, 8)
        q = rng.randint(9, 40)
        mu = F(rng.randint(1, q - 1), q)
        if trial % 3 == 0:
            nu = mu * F(rng.randint(0, q - 1), q)
        elif trial % 3 == 1:
            nu = mu * mu
        else:
            ladder = exceptional_ladder(mu, n) if mu > F(1, 2) else []
            if not ladder:
                continue
            nu = rng.choice(ladder)[1]
        spec = params_from_mu_nu(mu, nu, n)
        if isinstance(spec, NotClassified):
            continue
        lam = family_sequence(spec, n)
        assert lam[1] == mu and lam[2] == nu
        assert is_stochastic(lam)
        assert is_globally_reversible(lam)
        assert classify_walk(lam) == spec
        # delta with integer b' is the exceptional ladder, a kind of its own
        kinds.add((type(spec), isinstance(spec, DeltaAB) and spec.b_prime.denominator == 1))
        checked += 1
        if n < 4:
            continue
        # lowering one lambda_d, d >= 3, keeps (mu, nu) but leaves the family
        d = rng.randint(3, n - 1)
        for k in (2, 16, 1024):
            off = lam[:d] + [lam[d] - lam[d] / k] + lam[d + 1 :]
            if off != lam and is_stochastic(off):
                assert isinstance(classify_walk(off), NotClassified)
                assert not is_globally_reversible(off)
                perturbed += 1
                break
    assert kinds == {(GammaAB, False), (GammaC, False), (DeltaAB, False), (DeltaAB, True)}
    assert checked >= 150 and perturbed >= 50


def test_grid_reversibility_agrees_with_detailed_balance(capsys):
    # one verdict: the sweep's record, `check reversible` and `kolmogorov`
    # agree on every walk, transient states included, and detailed balance
    # against the stationary law agrees on every irreducible walk
    from involute.cli import main
    from involute.errors import NoPositiveStationary
    from involute.walk import ergodicity, kolmogorov, stationary

    compared = transient = reversible = 0
    for n in range(3, 7):
        for record in conjecture_search(n, max_denominator=6).records:
            text = ",".join(map(str, record.lam))
            code = main(["check", "--lambda", text, "reversible"])
            capsys.readouterr()
            assert (code == 0) == record.reversible, text
            p = lambda_walk(record.lam)
            try:
                assert kolmogorov(p) == record.reversible, text
            except NoPositiveStationary:
                assert not record.reversible, text
                transient += 1
                continue
            if ergodicity(p).irreducible:
                assert detailed_balance(p, stationary(p)) == record.reversible, text
            compared += 1
            reversible += record.reversible
    assert compared + transient == 217
    assert transient > 60 and reversible > 20


def test_candidate_diagonal_starts_with_one_mu_nu():
    # _classify compares only lambda_3.. with the candidate: lambda_0..lambda_2
    # are 1, mu and nu by construction, for every admitted (mu, nu) of the
    # den <= 12 grid, each case of the split included
    grid = sorted({F(p, q) for q in range(1, 13) for p in range(q + 1)})
    kinds = set()
    for mu in grid:
        for nu in grid:
            if not 1 > mu > nu >= 0:
                continue
            spec = params_from_mu_nu(mu, nu, 3)
            if isinstance(spec, NotClassified):
                continue
            assert family_sequence(spec, 3) == [1, mu, nu], (mu, nu)
            kinds.add((type(spec), isinstance(spec, DeltaAB) and spec.b_prime.denominator == 1))
    assert kinds == {(GammaAB, False), (GammaC, False), (DeltaAB, False), (DeltaAB, True)}


def test_term_ratio_test_matches_the_family_sequence_oracle():
    # _first_mismatch reads lambda_{d+1} (C gap + d gap) = lambda_d (A gap + d
    # gap) on integers; for every named spec at each n of its domain (up to 16
    # for gamma), delta at n = ceil(a') included, the candidate is the spec,
    # its own sequence has no mismatch, and with one term lambda_d, d >= 3,
    # moved either way, the mismatch index is the oracle's: the first index
    # at which the sequence leaves family_sequence(spec, n)
    checked = 0
    for spec in map(spec_from_flags, NAMED_SPECS):
        limit = domain_limit(spec)
        for n in range(3, 17 if limit == UNBOUNDED else limit + 1):
            lam = family_sequence(spec, n)
            assert params_from_mu_nu(lam[1], lam[2], n) == spec, (spec, n)
            ratio = _lead_gap(lam[1], lam[2])
            assert _first_mismatch(lam, *ratio) is None, (spec, n)
            assert _classify(lam, True) == spec
            for d in range(3, n):
                for step in (F(1, 2**20), -lam[d] / 3):
                    changed = lam[:d] + [lam[d] + step] + lam[d + 1:]
                    first = next(i for i, (a, b) in enumerate(zip(changed, lam)) if a != b)
                    assert _first_mismatch(changed, *ratio) == first == d, (spec, n, d)
                    assert _classify(changed, True) == NotClassified(
                        f"lambda_{d} mismatches the candidate family")
                    checked += 1
    assert checked > 1000


def _full_diagonal_classification(lam):
    """The classification of a stochastic lam whose walk reaches 0, with the
    candidate's whole diagonal compared, lambda_0..lambda_2 included."""
    if all(v == 1 for v in lam):
        return IdentityWalk()
    try:
        spec = params_from_mu_nu(lam[1], lam[2], len(lam))
    except OutOfRange as exc:
        return NotClassified(str(exc))
    if isinstance(spec, NotClassified):
        return spec
    diagonal = family_sequence(spec, len(lam))
    d = next((d for d, (a, b) in enumerate(zip(lam, diagonal)) if a != b), None)
    return spec if d is None else NotClassified(f"lambda_{d} mismatches the candidate family")


def test_lambda_verdicts_match_fraction_walks():
    # classify_walk and is_globally_reversible read the integer L * M; on the
    # n <= 7, den <= 6 grid they agree with the Fraction walk: reachability by
    # fixed point on lambda_walk, and each truncation's own P for the
    # top-right submatrices
    counts = {"unreachable": 0, "reversible": 0, "not reversible": 0, "classified": 0}
    for n in range(3, 8):
        for den in range(1, 7):
            for lam in stochastic_grid(n, den):
                if not zero_accessible(lambda_walk(lam)):
                    counts["unreachable"] += 1
                    with pytest.raises(ZeroNotAccessible):
                        is_globally_reversible(lam)
                    if any(v != 1 for v in lam):
                        with pytest.raises(ZeroNotAccessible):
                            classify_walk(lam)
                        continue
                else:
                    expected = all(_potentials(lambda_walk(lam[:m])) is not None
                                   for m in range(2, n + 1))
                    assert is_globally_reversible(lam) == expected, lam
                    counts["reversible" if expected else "not reversible"] += 1
                got = classify_walk(lam)
                assert got == _full_diagonal_classification(lam), lam
                counts["classified"] += not isinstance(got, NotClassified)
    assert min(counts.values()) > 20, counts
