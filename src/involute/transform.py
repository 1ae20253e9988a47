"""Binomial transforms and anti-diagonal eigenvalue checks.

The binomial transform of a sequence lambda_0, ..., lambda_{n-1} is the
lower-triangular matrix

    H[x][y] = binom(x, y) * sum_e (-1)^e binom(x-y, e) lambda_{y+e}
            = (B Diag(lambda) B^{-1})[x][y],

where B is the Pascal matrix B[x][y] = binom(x, y).  Its anti-triangular
companion P = H J is stochastic exactly when lambda_0 = 1 and the n
alternating sums sum_e (-1)^e binom(z, e) lambda_{z*+e} are non-negative.

A lower-triangular L has the anti-diagonal eigenvalue property (ADEP) when
the eigenvalues of L J are (-1)^d L[d][d]; the global variant (GADEP) asks
the same of every top-left submatrix.  Binomial transforms always have
GADEP; the parametrized counterexample matrices show the converse fails.
Each of the three properties has one function, which returns None when it
holds and its witness when it fails: `adep_witness` decides size n with one
characteristic polynomial and searches the smaller blocks only on failure,
`gadep_witness` the sizes 1..n up to the first failure, both naming the
smallest failing top-left block, and `binomial_transform_witness` needs no
polynomial to name the first entry off the transform.  `property_report`
decides all three and names one witness.  The three that compute a
characteristic polynomial refuse n > CHARPOLY_BUDGET with OutOfRange before
the first one, and `check_conjugator` refuses n > CONJUGATOR_BUDGET before
its first elimination.

The grid of stochastic sequences whose entries have denominator at most
den is enumerated on an integer lattice (`_lattice_records`): scaled by
L = lcm(1..den), the grid values, the difference rows and the floors and
ceilings that cut the enumeration are all integers, and the transform core
takes them as they are.  A single sequence is scaled the same way, by the
lcm of its own denominators: `is_stochastic` decides the alternating sums
on those integers.

Reversibility needs no P at all.  With y = n-1-z and k = x + z - (n-1),
P[x][z] = binom(x, y) D_k(y), the difference table times a binomial, and
binom(x, y) = x! / (y! k!), where k is the same for P[z][x].  So

    P[x][z] / P[z][x] = (g_x / g_z) M[x][z] / M[z][x],  g_x = x! (n-1-x)!,

for M = D J, M[x][z] = D_k(n-1-z) when x + z >= n-1 and 0 otherwise: P
without its binomial factor.  P and M have the same support, the same
detailed-balance verdict and the same forest of potentials; pi_x is
proportional to binom(n-1, x) rho_x, rho the potentials of M; and the
top-right k x k block of M is the M of lambda_0..lambda_{k-1}.  So the
lattice hands each record its difference table, whose padded rows are the
columns of the integer L * M: the sweep reads them as the rows of M^T,
which has M's verdicts (`classify.conjecture_search`), and a checked
sequence's verdicts read its integer L * M (`_scaled_walk`, `_dj_rows`).
H and P are read off the same integer rows, each entry made from its
integer pair (`_binomial_rows`), and so is a named family's P, from the
rows of its reduced integer pairs (`_pair_walk`): the family walk is the
transform of its eigenvalue sequence (the `weights` docstring), stochastic
by construction.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from . import _linalg as la
from ._record import FrozenRecord
from .errors import NotStochastic, OutOfRange, SingularMatrix
from .exactnum import as_rational
from .spectral import signed_eigenvalues


def _coerce_lambda(lam) -> list:
    lam = [as_rational(v) for v in lam]
    if not lam:
        raise OutOfRange("need at least one eigenvalue")
    return lam


def _difference_rows(lam):
    """Forward differences of lambda, one row per start index, from the tail.

    Yields the rows for y = n-1, n-2, ..., 0; the row for y is
    [D_0(y), ..., D_{n-1-y}(y)] with D_0 = lambda and
    D_k(y) = D_{k-1}(y) - D_{k-1}(y+1) = sum_e (-1)^e binom(k, e) lambda_{y+e},
    so H[x][y] = binom(x, y) D_{x-y}(y) and the last entry of the row for
    y = n-1-z is the z-th alternating sum.
    """
    row: list = []
    for v in reversed(lam):
        row = _difference_row(row, v)
        yield row


def _difference_row(prev: list, v) -> list:
    """The difference row for index y from the row for y+1 and lambda_y = v.

    Its last entry, v - sum(prev), is the alternating sum at z = n-1-y.
    """
    row = [v]
    for p in prev:
        row.append(row[-1] - p)
    return row


def _binomial_rows(table: list, scale: int, entry) -> list:
    """H from the difference rows of the integers L * lambda, L = scale, in
    `_difference_rows` order: H[x][y] = entry(binom(x, y) D_{x-y}(y), L) and
    each zero entry(0, 1), entry making a value of an integer pair as for a
    weight (`walk.transition_matrix`)."""
    n = len(table)
    zero = entry(0, 1)
    h = [[zero] * n for _ in range(n)]
    for y, row in zip(range(n - 1, -1, -1), table):
        c = 1  # binom(y + k, y), advanced down the column
        for k, v in enumerate(row):
            h[y + k][y] = entry(c * v, scale)
            c = c * (y + k + 1) // (k + 1)
    return h


def binomial_transform(lam) -> list:
    """Lower-triangular H with diagonal lambda; exact rational entries."""
    scaled, scale = la.integer_row(_coerce_lambda(lam))
    la.check_table(len(scaled))
    return _binomial_rows(list(_difference_rows(scaled)), scale, Fraction)


class StochasticCheck(FrozenRecord):
    __slots__ = _fields = ("ok", "witness", "reason")

    def __init__(self, ok: bool, witness: int | None = None, reason: str = ""):
        self._freeze(ok, witness, reason)  # witness: the failing index z, if any

    def __bool__(self) -> bool:
        return self.ok


def _scaled_check(lam) -> tuple:
    """(lambda as Fractions, L, its StochasticCheck, the difference rows of
    L * lambda walked, a failing one last), L the lcm of the denominators.

    The alternating sums are linear in lambda, so they are decided on the
    integers L * lambda, and a failing one is divided by L only to print it.
    Past TABLE_BUDGET, where no table is built, no row is kept.
    """
    lam = _coerce_lambda(lam)
    scaled, scale = la.integer_row(lam)
    table: list = []
    if lam[0] != 1:
        return lam, scale, StochasticCheck(False, None, f"lambda_0 = {lam[0]} != 1"), table
    held = len(lam) <= la.TABLE_BUDGET
    for z, row in enumerate(_difference_rows(scaled)):
        if held:
            table.append(row)
        if row[-1] < 0:
            return lam, scale, StochasticCheck(
                False, z, f"alternating sum at z={z} is {Fraction(row[-1], scale)} < 0"), table
    return lam, scale, StochasticCheck(True), table


def is_stochastic(lam) -> StochasticCheck:
    """Stochasticity of P^lambda via the n alternating-sum inequalities."""
    return _scaled_check(lam)[2]


def _stochastic_rows(lam) -> tuple:
    """(lambda as Fractions, L, the difference rows of L * lambda that decided
    it) once P^lambda is stochastic, none past TABLE_BUDGET; raises NotStochastic."""
    lam, scale, check, table = _scaled_check(lam)
    if not check:
        raise NotStochastic(check.reason)
    return lam, scale, table


def _require_square(m) -> list:
    rows = [[as_rational(v) for v in row] for row in m]
    if any(len(row) != len(rows) for row in rows):
        raise OutOfRange("matrix must be square")
    return rows


def _require_lower_triangular(m) -> list:
    rows = _require_square(m)
    if not la.is_lower_triangular(rows):
        raise OutOfRange("matrix must be lower-triangular")
    return rows


# the largest n of a check that computes characteristic polynomials (adep,
# gadep, the json report); their time grows about as n^5: at the budget, on
# the slowest bench family gamma(2, 2/3), `check adep` takes 0.07 s and
# `gadep` and `--format json check` 0.4 s (2-vCPU Xeon VM, Python 3.11.7),
# and n = 100 takes 14 s for `adep` alone
CHARPOLY_BUDGET = 32


def _charpoly_rows(m) -> list:
    """The rows of a lower-triangular m, once n is within CHARPOLY_BUDGET."""
    rows = _require_lower_triangular(m)
    la.check_budget(len(rows), CHARPOLY_BUDGET, "a characteristic-polynomial check", "charpoly")
    return rows


def _adep(rows) -> bool:
    """ADEP of already coerced lower-triangular rows, on integers.

    B = D L J (J reverses columns) is the integer matrix of L J, D the lcm
    of its denominators, and B[d][n-1-d] = D L[d][d].  The eigenvalues of B
    are D times those of L J, so coefficient k of either polynomial below
    is D^k times that of charpoly(L J) or of prod_d (X - (-1)^d L[d][d]):
    `berkowitz(B)` equals prod_d (X - (-1)^d B[d][n-1-d]) exactly when
    those two are equal.  No Fraction is formed.
    """
    b, _ = la.integer_matrix([row[::-1] for row in rows])
    last = len(b) - 1
    target = la.poly_from_roots(signed_eigenvalues([row[last - d] for d, row in enumerate(b)]))
    return la.berkowitz(b) == target


def _first_non_adep_size(rows) -> int | None:
    """Smallest k whose top-left k x k block fails ADEP; None under GADEP."""
    return next(
        (k for k in range(1, len(rows) + 1) if not _adep(la.top_left(rows, k))), None
    )


def adep_witness(m) -> int | None:
    """Anti-diagonal eigenvalue property, as an exact char-poly multiset test:
    None when it holds, else the smallest top-left block that fails it.

    Size n is decided first, with one characteristic polynomial:
    charpoly(L J) is compared with prod_d (X - (-1)^d L[d][d]), both scaled
    to integer polynomials (`_adep`).  Only a failure searches the smaller
    blocks.  This does not verify diagonalizability of L J, so repeated
    eigenvalues are accepted on multiset evidence alone.
    """
    rows = _charpoly_rows(m)
    if _adep(rows):
        return None
    return _first_non_adep_size(la.top_left(rows, len(rows) - 1)) or len(rows)


def gadep_witness(m) -> int | None:
    """GADEP: None when every top-left block has ADEP, else the smallest that fails."""
    return _first_non_adep_size(_charpoly_rows(m))


def binomial_transform_witness(m) -> tuple | None:
    """None when L is the binomial transform of its own diagonal, else the
    first entry (x, y), row by row, where it differs.

    Being the transform is the same as every Pascal column v(d) being an
    eigenvector, L v(d) = L[d][d] v(d): these n equations say L B = B Diag,
    and B is invertible.
    """
    rows = _require_lower_triangular(m)
    expected = binomial_transform([row[d] for d, row in enumerate(rows)])
    return next(((x, y) for x, (row, want) in enumerate(zip(rows, expected))
                 for y in range(x + 1) if row[y] != want[y]), None)


# the largest n of `check conjugator`, one rref of an n x 2n matrix per size;
# its time grows about as n^4.5 on dense entries: at the budget, random p/q
# (|p|, q <= 9) take 0.86 s, `--global` on B Diag(d) 0.82 s and `check
# --gamma 1 1/3 --n N conjugator` 0.09 s, while n = 120 takes 17 s on random
# entries and N = 256 takes 11.6 s on H (2-vCPU Xeon VM, Python 3.11.7)
CONJUGATOR_BUDGET = 64


def check_conjugator(q, global_check: bool = False) -> bool:
    """Anti-diagonal conjugator test: Q^{-1} J Q upper-triangular with
    diagonal (-1)^x; the global variant checks every top-left submatrix.
    Q X = J Q, J Q being Q with its rows reversed, is solved by one rref,
    once n is within CONJUGATOR_BUDGET."""
    rows = _require_square(q)
    n = len(rows)
    la.check_budget(n, CONJUGATOR_BUDGET, "a conjugator check", "conjugator")
    sizes = range(1, n + 1) if global_check else [n]
    for k in sizes:
        sub = la.top_left(rows, k)
        r, pivots = la.rref([row + jrow for row, jrow in zip(sub, sub[::-1])])
        if pivots != list(range(k)):
            raise SingularMatrix("matrix is singular")
        conj = [row[k:] for row in r]
        if not la.is_upper_triangular(conj):
            return False
        if any(conj[x][x] != (-1) ** x for x in range(k)):
            return False
    return True


def property_report(m) -> dict:
    """The JSON record of the three verdicts: the first failing block as the
    witness, else the first entry off the transform."""
    rows = _charpoly_rows(m)
    size = _first_non_adep_size(rows)
    # the loop already decided size n unless it stopped below it
    adep = size is None or (size < len(rows) and _adep(rows))
    entry = binomial_transform_witness(rows)
    # a full eigenbasis of Pascal columns is exactly global eigenbasis
    # action, so the key eigenbasis_action repeats is_binomial_transform
    return {"adep": adep, "gadep": size is None, "eigenbasis_action": entry is None,
            "is_binomial_transform": entry is None, "witness": entry if size is None else size}


def gadep_counterexample(which: str, tau) -> list:
    """Parametrized matrices with GADEP that are not binomial transforms.

    'L4' is 4x4 with eigenvalues (1, 2/3, 1/4, 1/5); 'H5' is 5x5 stochastic
    with eigenvalues (1, 1/2, 1/2-tau, 1/2-tau, 1/2-2tau).  At tau = 0 both
    degenerate to actual binomial transforms.
    """
    t = as_rational(tau)
    F = Fraction
    if which == "L4":
        return [
            [F(1), F(0), F(0), F(0)],
            [F(1, 3), F(2, 3), F(0), F(0)],
            [F(-1, 12), F(5, 6), F(1, 4), F(0)],
            [F(-9, 20), F(11, 10) + F(4, 5) * t, F(3, 20) + F(1, 5) * t, F(1, 5)],
        ]
    if which == "H5":
        half = F(1, 2)
        return [
            [F(1), F(0), F(0), F(0), F(0)],
            [half, half, F(0), F(0), F(0)],
            [half - t, 2 * t, half - t, F(0), F(0)],
            [half - 2 * t, 3 * t, F(0), half - t, F(0)],
            [half - 4 * t, 5 * t, F(0), t, half - 2 * t],
        ]
    raise OutOfRange(f"unknown counterexample {which!r}; use 'L4' or 'H5'")


def stochastic_sequence(lam) -> list:
    """lam as Fractions, once P^lambda is stochastic; raises NotStochastic."""
    return _stochastic_rows(lam)[0]


def lambda_walk(lam, entry=Fraction) -> list:
    """The rows of P^lambda = H J, each entry made by entry from its integer
    pair as a weight's are (`walk.transition_matrix`), H read off the rows
    that decided stochasticity; refuses an n past TABLE_BUDGET before any
    row is walked, and raises NotStochastic.  P is stochastic and
    anti-triangular by construction, so its rows are not validated again."""
    la.check_table(len(lam))
    lam, scale, table = _stochastic_rows(lam)
    return [row[::-1] for row in _binomial_rows(table, scale, entry)]


def _pair_walk(pairs: list, entry) -> list:
    """The rows of P^lambda for a lambda known to be stochastic, given as
    reduced integer pairs (num, den), den > 0: H is read off the difference
    rows of L * lambda, L the lcm of the denominators, as in `lambda_walk`,
    and no Fraction is formed."""
    scale = math.lcm(*(q for _, q in pairs))
    table = list(_difference_rows([p * (scale // q) for p, q in pairs]))
    return [row[::-1] for row in _binomial_rows(table, scale, entry)]


def _dj_rows(table: list) -> list:
    """M = D J, as row tuples, from the difference table of a sequence.

    table[z] is the difference row for y = n-1-z, as `_difference_rows`
    yields it, and M[x][z] = D_k(y) with k = x + z - (n-1), zero when k < 0:
    the entries of P = H J without their binomial factor binom(x, y).  So
    column z of M is table[z] below n-1-z zeros.
    """
    n = len(table)
    return list(zip(*[[0] * (n - 1 - z) + row for z, row in enumerate(table)]))


def _scaled_walk(lam) -> tuple:
    """(lambda as Fractions, L * M^lambda on integers (`_dj_rows`)), L the
    lcm of lambda's denominators; raises NotStochastic when invalid.

    M is P without its binomial factors, and P[x][z] / P[z][x] =
    (g_x / g_z) M[x][z] / M[z][x] with g_x = x! (n-1-x)! (the module
    docstring).  So a verdict that reads P through its support or the
    ratios of its entries, as reachability and detailed balance do, reads
    it here without forming P or a Fraction, and the top-right k x k block
    of M is the M of lambda_0..lambda_{k-1}, as that of P is its P.  M is
    read off the rows that decided stochasticity (`_stochastic_rows`), and
    an n past TABLE_BUDGET is refused before that check, as for P.
    """
    la.check_table(len(lam))
    lam, _, table = _stochastic_rows(lam)
    return lam, _dj_rows(table)


# suffixes _lattice_records may visit, counted as the cut admits them: n = 4
# at den 20 visits 45,945 (42,879 records) and n = 6 at den 16 26,743
# (18,719 records), while n = 3 at den 60 needs 306,701; a refusal comes
# before any record is built, after at most 0.6 s (n = 6 at den 30; n = 4 at
# den 40 takes 0.2 s; 2-vCPU Xeon VM, Python 3.11.7)
LATTICE_BUDGET = 300_000


def _lattice_records(n: int, max_denominator: int) -> tuple:
    """The stochastic lambda of length n with entries p/q, q <= max_denominator,
    on integers: (L, an iterator of (scaled, table) pairs), in the order the
    enumeration meets them.

    L = lcm(1..max_denominator) scales every grid value to an integer, and
    with it the difference rows and the bounds below.  scaled is the tuple
    (L, lambda_1 L, ..., lambda_{n-1} L) and table its difference rows,
    list(_difference_rows(scaled)): the sequence is built from the tail,
    one row per value, so the rows of a suffix are shared by every record
    that ends in it, and the row of lambda_0 = L is added last.

    Each value is cut from both sides by one bisect.  Let the suffix
    lambda_{j+1}..lambda_{n-1} be fixed, j >= 1, with difference row `row`
    for j+1, m = len(row) = n-1-j and pre_k = row[0] + ... + row[k-1].
    Choosing lambda_j = v gives the row for j, row_j[k] = v - pre_k for
    k = 0..m.

    - Floor.  The last entry v - pre_m is the alternating sum at z = n-1-j,
      so v >= pre_m.  Then every entry of the table is non-negative, by
      induction from the tail, as D_k(y) = D_{k+1}(y) + D_k(y+1).
    - Ceiling.  Each earlier row is the suffix sums of the row after it
      plus a slack s >= 0, its own last entry: row_{y-1}[k] =
      s + sum_{i>=k} row_y[i].  So lambda_0 is
      sum_k binom(k+j-1, j-1) row_j[k] plus a non-negative combination of
      the slacks, and its least value over all real completions, at all
      slacks zero, is v binom(m+j, j) - sum_k binom(k+j-1, j-1) pre_k.
      That increases with v, and lambda_0 must be L, so
      v <= (L + sum_k binom(k+j-1, j-1) pre_k) // binom(m+j, j).

    A value past the ceiling has no real completion, so it has none on the
    grid either, and the cut loses no record.  At j = 1 the ceiling is
    L >= pre_m, the last alternating sum, so every full suffix is a record.
    A visited suffix has a real completion; it ends in no record only when
    no grid value lies between a later floor and ceiling, which at n = 5
    and den 16 holds for 382 of the 28,350 visited suffixes.

    The suffixes are built one level at a time, lambda_{n-1} first.  The
    suffixes of a level are counted from the bisects of the level above
    before any of them is built, and once the count below the root passes
    LATTICE_BUDGET the call raises OutOfRange.  So every level is counted
    before the call returns, an oversized grid is refused in a fraction of
    a second, before any record is built, and a caller that decides each
    record as it comes spends nothing on a grid it cannot finish.  The last
    level, the full suffixes, is not held: the records come from the
    iterator one at a time.  The grid holds about 3 D^2 / pi^2 values for
    D = max_denominator, and the count grows about 15-fold per doubling of
    D at n = 3, 50-fold at n = 4 and faster at larger n.
    """
    if n < 1:
        raise OutOfRange("need at least one eigenvalue")
    if max_denominator < 1:
        raise OutOfRange(f"max_denominator must be >= 1, got {max_denominator}")
    scale = math.lcm(*range(1, max_denominator + 1))
    values = sorted(
        {p * (scale // q) for q in range(1, max_denominator + 1) for p in range(q + 1)}
    )

    def grow(table: list, v: int) -> list:
        """The table of a suffix extended on the left by the value v."""
        return [*table, _difference_row(table[-1] if table else [], v)]

    def cut(table: list, j: int) -> tuple:
        """The indices (start, stop) of the values that lambda_j may take
        after the suffix with this table: from the floor to the ceiling."""
        floor = weighted = 0  # pre_k, and sum_k binom(k + j - 1, j - 1) pre_k
        c = 1
        for k, x in enumerate(table[-1] if table else (), 1):
            floor += x
            c = c * (k + j - 1) // k  # binom(k + j - 1, j - 1)
            weighted += c * floor
        ceiling = (scale + weighted) // math.comb(n - 1, j)  # m + j = n - 1
        return bisect.bisect_left(values, floor), bisect.bisect_right(values, ceiling)

    visited = 0
    level = [((), [])]  # the suffixes lambda_{j+1}..lambda_{n-1}, with their tables
    for j in range(n - 1, 0, -1):  # the index of the values chosen at this level
        level = [(node, cut(node[1], j)) for node in level]
        visited += sum(stop - start for _, (start, stop) in level)
        if visited > LATTICE_BUDGET:
            raise OutOfRange(
                f"n={n} at max_denominator={max_denominator} visits more than "
                f"{LATTICE_BUDGET} lattice suffixes, the sweep's budget"
            )
        level = (((v, *suffix), grow(table, v))
                 for (suffix, table), (start, stop) in level for v in values[start:stop])
    return scale, (((scale, *suffix), grow(table, scale)) for suffix, table in level)

