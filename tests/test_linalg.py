"""Exact linear algebra against sympy as an independent oracle."""

import math
import operator
import random
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy

from involute import _linalg as la
from involute.errors import NotIrreducible, OutOfRange, SingularMatrix
from involute.spectral import left_side, right_eigenvectors
from involute.transform import (_scaled_walk, binomial_transform, check_conjugator,
                                gadep_counterexample, lambda_walk)
from involute.walk import _potentials, _stationary_by_elimination, stationary, transition_matrix
from involute.weights import Custom, DeltaAB, GammaAB, GammaC, domain_limit, family_sequence

from oracles import charpoly_faddeev_leverrier, clear_denominators, normalized
from test_transform import random_stochastic_lambda
from test_walk import eliminations  # noqa: F401, a fixture


def _random_matrix(rng, rows, cols):
    """Seeded rational entries, with zero rows, zero columns and rank drops mixed in."""
    a = [
        [F(0) if rng.random() < 0.2 else F(rng.randint(-9, 9), rng.randint(1, 12))
         for _ in range(cols)]
        for _ in range(rows)
    ]
    kind = rng.randrange(6)  # 0, 4 and 5 keep the random matrix
    if kind == 1 and rows > 1:
        i, j = rng.sample(range(rows), 2)
        c = F(rng.randint(-3, 3), rng.randint(1, 4))
        a[i] = [c * v + w for v, w in zip(a[j], a[rng.randrange(rows)])]
    elif kind == 2:
        a[rng.randrange(rows)] = [F(0)] * cols
    elif kind == 3:
        j = rng.randrange(cols)
        for row in a:
            row[j] = F(0)
    return a


def _cases(count, square=False):
    rng = random.Random(20260501)
    out = [[[F(0)]], [[F(-7, 3)]]]
    while len(out) < count:
        rows = rng.randint(1, 6)
        cols = rows if square else rng.randint(1, 7)
        out.append(_random_matrix(rng, rows, cols))
    return out


def _sym(a):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in a])


def _frac(x):
    x = sympy.Rational(x)
    return F(int(x.p), int(x.q))


def _rows(m):
    return [[_frac(v) for v in m.row(i)] for i in range(m.rows)]


def test_rref_matches_sympy():
    for a in _cases(150):
        r, pivots = la.rref(a)
        ref, ref_pivots = _sym(a).rref()
        assert (r, pivots) == (_rows(ref), list(ref_pivots)), a


def test_charpoly_matches_sympy():
    x = sympy.Symbol("x")
    for a in _cases(150, square=True):
        assert la.charpoly(a) == [_frac(c) for c in _sym(a).charpoly(x).all_coeffs()], a


def test_kron_entries_are_the_products_of_the_factors():
    # block (i, j) of kron(a, b) is a[i][j] * b, and each zero is Fraction(0)
    rng = random.Random(20261022)
    for _ in range(300):
        a = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        nb, mb = len(b), len(b[0])
        out = la.kron(a, b)
        assert len(out) == len(a) * nb and {len(row) for row in out} == {len(a[0]) * mb}
        for i, arow in enumerate(a):
            for j, x in enumerate(arow):
                for k, brow in enumerate(b):
                    for l, y in enumerate(brow):
                        assert out[i * nb + k][j * mb + l] == x * y
        assert all(type(v) is F for row in out for v in row)


def test_law_matches_fraction_sums():
    rng = random.Random(20261019)
    cases = [[(1, 1)], [(0, 3), (2, 5)], [(-1, 2), (-3, 4), (-5, 6)], [(-2, 3), (5, 7), (0, 1)]]
    for _ in range(60):
        size = rng.randint(1, 8)
        sign = rng.choice((1, -1))
        cases.append([(sign * rng.randint(1 if k == 0 else 0, 10**6), rng.randint(1, 10**4))
                      for k in range(size)])
    for pairs in cases:
        found = la.law(pairs)
        assert found == normalized([F(a, b) for a, b in pairs]), pairs
        assert sum(found) == 1 and all(type(v) is F for v in found)
    # an all-negative vector gives the same law as its negation
    assert la.law([(-1, 2), (-3, 4), (-5, 6)]) == [F(6, 25), F(9, 25), F(10, 25)]


def _stationary_space(p):
    """The left kernel of P - I, by sympy."""
    n = len(p)
    return (_sym(p) - sympy.eye(n)).T.nullspace()


def _custom_walk(rng, n):
    """The walk of a random sparse custom weight, often reducible."""
    table = {}
    for x in range(n):
        ys = [y for y in range(x + 1) if rng.random() < 0.4] or [rng.randrange(x + 1)]
        table.update({(y, x): F(rng.randint(1, 9), rng.randint(1, 5)) for y in ys})
    return transition_matrix(Custom(n, table), n)


def test_stationary_by_elimination_matches_sympy(eliminations):
    rng = random.Random(20261020)
    walks = [lambda_walk(random_stochastic_lambda(n, rng)) for n in range(2, 9) for _ in range(6)]
    walks += [_custom_walk(rng, n) for n in range(1, 8) for _ in range(12)]
    seen = {"not reversible": 0, "unique": 0, "reducible": 0}
    for p in walks:
        seen["not reversible"] += _potentials(p) is None
        space = _stationary_space(p)
        if len(space) == 1:
            seen["unique"] += 1
            assert _stationary_by_elimination(p) == normalized(
                [_frac(v) for v in space[0]]), p
        else:
            # a reducible walk never reaches elimination: stationary counts
            # its closed classes first
            seen["reducible"] += 1
            with pytest.raises(NotIrreducible, match=f"^stationary space has dimension "
                                                     f"{len(space)}$"):
                stationary(p)
    assert all(count >= 10 for count in seen.values()), seen
    assert eliminations == []


def test_check_conjugator_matches_sympy():
    rng = random.Random(20261021)
    cases = [[[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
             for n in range(1, 6) for _ in range(40)]
    # the Pascal matrix conjugates J to an upper-triangular matrix at every size
    cases += [[[F(math.comb(x, y)) for y in range(n)] for x in range(n)] for n in range(1, 6)]
    verdicts = Counter()
    for q in cases:
        for global_check in (False, True):
            sizes = range(1, len(q) + 1) if global_check else [len(q)]
            expected = True
            for k in sizes:
                block = la.top_left(q, k)
                if _sym(block).det() == 0:
                    expected = None  # the check meets a singular block first
                    break
                conj = _rows(_sym(block).inv() * _sym(block[::-1]))  # Q^-1 J Q
                if not (la.is_upper_triangular(conj)
                        and all(conj[x][x] == (-1) ** x for x in range(k))):
                    expected = False
                    break
            verdicts[global_check, expected] += 1
            if expected is None:
                with pytest.raises(SingularMatrix, match="^matrix is singular$"):
                    check_conjugator(q, global_check=global_check)
            else:
                assert check_conjugator(q, global_check=global_check) == expected, q
    # every verdict is reached, and a singular top-left block under --global
    assert all(verdicts[g, e] for g in (False, True) for e in (True, False, None)), verdicts


def _charpoly_cases():
    """Random matrices n = 0..14 (singular ones, zero rows and zero columns
    mixed in), the anti-triangular H J of family walks up to n = 16, and the
    L4 and H5 counterexamples."""
    rng = random.Random(20261101)
    cases = [[]] + [_random_matrix(rng, n, n) for n in range(1, 15) for _ in range(4)]
    specs = [GammaAB(2, F(4, 3)), GammaAB(F(-1, 3), F(1, 2)), GammaC(F(1, 3)), GammaC(3),
             DeltaAB(F(21, 2), F(43, 4)), DeltaAB(9, 4)]
    for spec in specs:
        for n in (1, 2, 5, 9, 12, 16):
            if n <= domain_limit(spec):
                cases.append(transition_matrix(spec, n))
    cases += [gadep_counterexample(which, tau)
              for which in ("L4", "H5") for tau in (0, F(1, 4), 1)]
    return cases


def test_charpoly_matches_faddeev_leverrier_and_sympy():
    x = sympy.Symbol("x")
    cases = _charpoly_cases()
    assert sum(_sym(a).det() == 0 for a in cases if a) >= 10
    for a in cases:
        found = la.charpoly(a)
        assert found == charpoly_faddeev_leverrier(a), a
        ref = _sym(a).charpoly(x).all_coeffs() if a else [1]
        assert found == [_frac(c) for c in ref], a


def test_charpoly_of_empty_matrix():
    assert la.charpoly([]) == [1]


def test_triangular_eigenvectors_match_sympy():
    rng = random.Random(20261018)
    for _ in range(40):
        size = rng.randint(1, 7)
        diagonal = rng.sample(range(-30, 31), size)
        t = [[diagonal[i] if i == k else rng.randint(-20, 20) if k > i else 0
              for k in range(size)] for i in range(size)]
        found = la.triangular_eigenvectors(t)
        assert len(found) == size
        by_value = {int(val): vecs for val, _, vecs in sympy.Matrix(t).eigenvects()}
        for d, c in enumerate(found):
            (ref,) = by_value[diagonal[d]]
            ref = [_frac(x) / _frac(ref[d]) for x in ref]
            assert len(c) == d + 1 and c[d] > 0 and all(x == 0 for x in ref[d + 1:])
            assert c == la.primitive(la.integer_row(ref[:d + 1])[0]), t


def test_clear_denominators_examples():
    assert clear_denominators([F(-1, 2), F(0), F(3, 4)]) == [F(2), F(0), F(-3)]
    assert clear_denominators([F(0), F(6), F(-4)]) == [F(0), F(3), F(-2)]
    assert clear_denominators([F(0), F(0)]) == [F(0), F(0)]
    assert clear_denominators([]) == []


def test_table_budget_bounds_every_dense_table():
    budget, over = la.TABLE_BUDGET, la.TABLE_BUDGET + 1
    # at the budget the tables are built
    assert len(transition_matrix(GammaAB(1, 1), budget)) == budget
    assert len(lambda_walk([1] + [0] * (budget - 1), operator.floordiv)) == budget
    la.check_table(budget)
    # one past it every site refuses before it allocates
    builds = [
        lambda: transition_matrix(GammaAB(1, 1), over),
        lambda: binomial_transform([1] + [0] * budget),
        lambda: right_eigenvectors(list(range(1, over + 1))),
        lambda: left_side(list(range(1, over + 1)), dmax=0),
        lambda: _scaled_walk([1] * over),
        lambda: lambda_walk([1] * over),
    ]
    for build in builds:
        with pytest.raises(OutOfRange, match=f"n <= {budget}, the table budget, got n={over}"):
            build()
    # a few right eigenvectors of a large walk need only a few rows of T
    rights = right_eigenvectors(list(range(1, over + 1)), dmax=0)
    assert rights == [[F(1)] * over]
    rights = right_eigenvectors([F(1, d + 1) for d in range(14_300)], dmax=1)
    assert len(rights) == 2 and len(rights[1]) == 14_300
    rights = right_eigenvectors(family_sequence(GammaAB(1, 1), over), dmax=2)
    assert [len(v) for v in rights] == [over] * 3
