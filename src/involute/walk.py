"""Involutive random walks on {0, ..., n-1}.

The walk at state x picks y <= x with probability proportional to the weight
of [y, x] and steps to y* = n-1-y.  Its transition matrix is
P[x][z] = w[z*, x] / N_x, which is anti-triangular:
P[x][z] = 0 whenever x + z < n - 1.  Writing H for the lower-triangular
down-step matrix H[x][y] = w[y, x] / N_x and J for the anti-diagonal
permutation, P = H J.

A walk is the list of rows of P, and a probability law the list of its
Fractions.  H is P with each row reversed, so it is formed only where it is
printed or tested.  A matrix read from outside the program becomes a walk
through `checked_walk`; every walk built here is stochastic and
anti-triangular by construction and is not validated again.

This module provides exact construction, stationary distributions
(potentials, and exact elimination for walks that are not reversible, with
one closed class; a family's closed form is in `weights`), ergodicity
reports, the reversibility verdict and the cycle-product criterion, the code
that steps P (seeded simulation and the mixing fit), and the
Kronecker-power walk on subsets.
Each result is a value: `simulate` returns the trajectory, whose visits
`visit_frequencies` counts, and a `SubsetWalk` holds the closed forms, from
which `subset_matrix` builds the dense walk.

One engine decides reversibility.  Detailed balance pi_x P[x][z] = pi_z P[z][x]
fixes the ratio pi_z / pi_x along every edge of the support graph, so the
potentials are spread over a spanning forest and every other equation is
checked exactly, from the larger of its two states (_potentials).  A walk is
reversible when they exist, that is, when detailed balance holds against a
strictly positive law; a walk with transient states is not.  The stationary
law of a reversible walk and the Kolmogorov criterion are read from that one
check.

One engine decides reachability: the set of states each state reaches, a
bitmask closed by Warshall's algorithm (_classes).  States that reach the
same set form a communicating class, which ergodicity reads.  A class that
reaches only itself is closed, no step leaves it (_closed_classes), and the
closed classes decide whether every state is recurrent.  State 0 is reached
from every state when every reach set holds it (_zero_reachable).  For a walk
whose potentials exist their tree count already answers the last question:
each tree spans a connected piece of a symmetric support, a class that no
step leaves, so 0 is reached from every state exactly when there is one.
The closed classes also count the stationary laws: they span one dimension
per closed class, so `stationary` refuses a walk with two or more from its
tree count or its classes, and elimination only solves.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, compress, islice

from . import _linalg as la
from . import transform
from ._record import Record
from .errors import NoPositiveStationary, NotIrreducible, OutOfRange
from .exactnum import as_rational
from .spectral import signed_eigenvalues
from .weights import (Custom, GammaC, WeightSpec, domain_limit, down_step_table, family_sequence,
                      invariant_closed_form)


def checked_walk(p_rows) -> list:
    """The rows of a transition matrix read from outside the program, as
    Fractions, once they are square, stochastic and anti-triangular."""
    n = len(p_rows)
    rows = [[as_rational(v) for v in row] for row in p_rows]
    for x, row in enumerate(rows):
        if len(row) != n:
            raise OutOfRange("transition matrix must be square")
        nonzero = [v for v in row if v]
        if sum(nonzero) != 1 or any(v < 0 for v in nonzero):
            raise OutOfRange(f"row {x} is not a probability distribution")
        if any(row[: n - 1 - x]):
            raise OutOfRange(f"row {x} breaks the anti-triangular support")
    return rows


class ErgodicityReport(Record):
    __slots__ = _fields = ("irreducible", "aperiodic", "ergodic", "communicating_classes")

    def __init__(self, irreducible: bool, aperiodic: bool, ergodic: bool,
                 communicating_classes: list):
        self.irreducible, self.aperiodic, self.ergodic = irreducible, aperiodic, ergodic
        self.communicating_classes = communicating_classes


class SubsetWalk(Record):
    """Down-up walk on subsets of {1..m}; state bitmask bit i = element i+1."""

    __slots__ = _fields = ("m", "p", "pi", "eigenvalues")

    def __init__(self, m: int, p: Fraction, pi: list, eigenvalues: list):
        self.m, self.p, self.pi = m, p, pi
        self.eigenvalues = eigenvalues  # expanded multiset, (-p)^e repeated binom(m, e) times


class MixingReport(Record):
    __slots__ = _fields = ("second_abs_eigenvalue", "empirical_rate")

    def __init__(self, second_abs_eigenvalue: Fraction, empirical_rate: float):
        self.second_abs_eigenvalue, self.empirical_rate = second_abs_eigenvalue, empirical_rate


def transition_matrix(spec: WeightSpec, n: int, entry=Fraction) -> list:
    """The exact rows of P for the weight on {0, ..., n-1}, each entry made
    by entry(num, den) from an integer pair, den > 0, and the zeros by
    entry(0, 1).

    A named family's walk is the binomial transform of its eigenvalue
    sequence (the `weights` docstring), so it is built as every lambda walk
    is: from the integer difference rows of L * lambda, read off the
    family's reduced integer pairs with no Fraction formed
    (`transform._pair_walk`).  A custom weight's rows are P = H J of its
    down-step table (`weights.down_step_table`).

    With entry = operator.truediv the rows hold the floats that float() of
    the Fraction rows gives, bit for bit, which is all `simulate` reads:
    int / int is correctly rounded in CPython, and float() of a Fraction
    divides its reduced pair, the same rational, so both round it to the
    same double; the zeros are 0 / 1 = 0.0, and no denominator is
    negative, so no entry is -0.0.
    """
    if isinstance(spec, Custom):
        zero = entry(0, 1)
        return [[zero] * (n - 1 - x) + row[::-1]
                for x, row in enumerate(down_step_table(spec, n, entry))]
    return transform._pair_walk(_table_sequence(spec, n, lambda p, q: (p, q)), entry)


def _table_sequence(spec: WeightSpec, n: int, entry=Fraction) -> list:
    """A named family's `family_sequence` for an n x n table: past
    TABLE_BUDGET it is refused before any term is computed, but only once n
    is inside the domain, so that the domain, which `family_sequence`
    checks, is named first."""
    if n <= domain_limit(spec):
        la.check_table(n)
    return family_sequence(spec, n, entry)


def support(p) -> list:
    """Each row's nonzero columns, in order."""
    return [list(compress(range(len(row)), row)) for row in p]


def _classes(adj: list) -> dict:
    """The communicating classes of a walk with support lists adj, keyed by
    the set of states they reach.

    Each state's reach set is a bitmask, bit z set when z is reached in zero
    or more steps.  It starts as the state and its row's support, the sum of
    their powers of two, and is closed by Warshall's algorithm.  Two states
    communicate exactly when their reach sets are equal, so grouping by mask
    gives the classes, each a sorted list, in order of least state.
    """
    reach = [sum(map((1).__lshift__, row)) | 1 << x for x, row in enumerate(adj)]
    for k in range(len(reach)):
        bit, via = 1 << k, reach[k]
        reach = [r | via if r & bit else r for r in reach]
    classes: dict = {}
    for x, mask in enumerate(reach):
        classes.setdefault(mask, []).append(x)
    return classes


def _class_period(adj: list, comp: list) -> int:
    """The gcd of the cycle lengths inside one communicating class, read
    off the levels of a search tree as the gcd of level[v] + 1 - level[u]
    over its edges v -> u.  A class with no cycle is one state without a
    loop: no edge inside it is read, and its period is 0.  Every other
    class has a cycle and a period of at least 1."""
    comp_set = set(comp)
    root = comp[0]
    level = {root: 0}
    queue = [root]
    g = 0
    while queue:
        v = queue.pop()
        for u in adj[v]:
            if u not in comp_set:
                continue
            if u in level:
                g = math.gcd(g, level[v] + 1 - level[u])
            else:
                level[u] = level[v] + 1
                queue.append(u)
    return g


def ergodicity(p) -> ErgodicityReport:
    """Irreducibility by the communicating classes, aperiodicity by the gcd
    of cycle lengths within each class: the walk is aperiodic when every
    class has period at most 1, the 0 of a class with no cycle included.

    Condition D is sufficient for an ergodic walk: w[x, x] > 0 for every x
    and w[x-1, x] > 0 for every x >= 1.  From x the walk then steps to
    n-1-x (take y = x) and, for x >= 1, to n-x (take y = x-1).  Two steps
    give x -> n-1-x -> x+1 for x <= n-2 and x -> n-x -> x-1 for x >= 1, so
    every state reaches every other: the walk is irreducible, and, being
    finite, recurrent.  The middle state has a loop, so it is aperiodic:
    for n odd m = (n-1)/2 steps to n-1-m = m, and for n even m = n/2 steps
    to n-m = m by y = m-1.  The condition is not necessary: at n = 4, 69 of
    the 315 support patterns give an ergodic walk and only 8 meet it.  The
    named family specs of the tests meet it at every n <= 12 in their
    domains.  The source paper's own wording of its "very mild assumptions"
    is not in this repository.

    A lambda walk's support depends only on the support S of its mixing law
    p_j = C(N, j) D_{N-j}(j), N = n-1: row x holds z = N-y exactly for the
    y in [max(0, x+j-N), min(x, j)] of some j in S.  Such a walk is ergodic
    exactly when N is in S and S meets [N // 2, N-1].  This is checked on
    every S for n <= 12, not proved (the test
    `test_lambda_walk_ergodicity_from_the_support_of_its_mixing_law`), so
    `check ergodic` still closes the support here.  For a lambda walk
    condition D reads {N-1, N} ⊆ S.
    """
    adj = support(p)
    comps = list(_classes(adj).values())
    irreducible = len(comps) == 1
    aperiodic = all(_class_period(adj, comp) <= 1 for comp in comps)
    return ErgodicityReport(irreducible, aperiodic, irreducible and aperiodic, comps)


def _closed_classes(p) -> list:
    """The communicating classes that no step leaves: those that reach only
    themselves."""
    return [comp for mask, comp in _classes(support(p)).items() if mask.bit_count() == len(comp)]


def _zero_reachable(p) -> bool:
    """State 0 is reached from every state, so from every class."""
    return all(mask & 1 for mask in _classes(support(p)))


def _potentials(rows):
    """Detailed-balance potentials of a walk, from one spanning forest.

    Detailed balance pi_x P[x][z] = pi_z P[z][x] needs a symmetric support
    and forces pi_z = pi_x P[x][z] / P[z][x] along every support edge.  So
    each tree of a spanning forest of the support graph is grown by a
    depth-first search from a root with pi = 1.  An equation is checked
    when the larger of its two states comes off the stack, its smaller
    state seen by then, unless the larger state spread along it: so every
    other edge's equation is checked once, and a tree edge that its smaller
    state spread is checked again and holds.  The first failing equation
    ends the search.  Each support entry is read with its mirror when its
    row's state comes off the stack, so an entry whose mirror is zero ends
    it too.  All of it runs on integers: each pi_x is kept as a reduced
    pair num[x] / den[x], an edge spreads it as a cross-multiplied pair
    reduced by one gcd, and an equation (a/b)(p/q) == (c/d)(r/s) is checked
    as a*p*d*s == c*r*b*q.
    Returns (pairs, trees), pairs[x] = (num[x], den[x]) with pi = 1 at each
    root and trees the number of trees grown (the connected components of
    the support), or None when the support is not symmetric or some
    equation fails.  No Fraction is formed.

    Only ratios P[x][z] / P[z][x] enter, so the verdict and the pairs are
    the same for any positive multiple c * P.  Entries are read by their
    numerator and denominator, which ints have too, so an integer matrix
    takes the same path as a Fraction P.  The verdict and the tree count
    are also those of any matrix A with P's support and ratios
    A[x][z] / A[z][x] = (c_z / c_x) P[x][z] / P[z][x], c > 0: c_x pi_x
    balances A exactly when pi balances P.  The integer L * M of a lambda
    walk (`transform._scaled_walk`) is such a matrix, with
    c_x = x! (n-1-x)!, since P[x][z] = binom(x, y) M[x][z] and
    binom(x, y) = x! / (y! k!) for y = n-1-z, k = x + z - (n-1), where k
    is the same for P[z][x].
    """
    n = len(rows)
    states = range(n)
    num = [0] * n
    den = [0] * n  # 0 until the state's tree reaches it
    trees = 0
    for root in states:
        if den[root]:
            continue
        trees += 1
        num[root] = den[root] = 1
        stack = [root]
        while stack:
            x = stack.pop()
            row, nx, dx = rows[x], num[x], den[x]
            for z in compress(states, row):
                backward = rows[z][x]
                if not backward:
                    return None  # the support is not symmetric
                seen = den[z]
                if seen and z >= x:
                    continue  # a loop, or checked when the larger state z comes off the stack
                forward = row[z]
                a = nx * forward.numerator * backward.denominator
                b = dx * forward.denominator * backward.numerator
                if not seen:
                    g = math.gcd(a, b)
                    num[z], den[z] = a // g, b // g
                    stack.append(z)
                elif a * seen != b * num[z]:
                    return None
    return list(zip(num, den)), trees


def stationary(p) -> list:
    """The unique pi with pi P = pi, for a walk whose rows sum to 1.

    The stationary laws of a finite walk span one dimension per closed
    class, so pi is unique exactly when there is one, and a walk with k > 1
    is refused from its classes at any n (so is the empty walk, with k = 0).
    When the potentials exist their tree count is k (the module docstring),
    and with one tree they are pi: summing pi_x P[x][z] = pi_z P[z][x] over
    x gives (pi P)_z = pi_z, because row z of P sums to 1.  Otherwise the closed classes are counted
    by reachability, and a walk that is not reversible (most --lambda and
    --custom walks), with one closed class, is solved by exact elimination
    on (P - I)^T, within ELIMINATION_BUDGET.
    """
    found = _potentials(p)
    k = found[1] if found else len(_closed_classes(p))
    if k != 1:
        raise NotIrreducible(f"stationary space has dimension {k}")
    if found:
        return la.law(found[0])
    return _stationary_by_elimination(p)


# the largest n of a stationary law by elimination, one rref of an n x n
# matrix: the lambda of gamma(1, 1/3) with lambda_d times 1 - 1/(50+d) for
# d >= 1, not reversible, takes 1.1 s at the budget and 3.2 s at n = 80, and
# a dense custom table of p/q, 1 <= p, q <= 9, 0.18 and 0.30 s (2-vCPU Xeon
# VM, Python 3.11.7)
ELIMINATION_BUDGET = 64


def _stationary_by_elimination(rows) -> list:
    """pi from one rref of (P - I)^T, read off the one column its sorted
    pivots skip, once n is within ELIMINATION_BUDGET.

    The walk must have exactly one closed class, as `stationary` checks
    first.  (P - I)^T then has rank n - 1, and its kernel is spanned by a
    non-negative law pi; the kernel vector read here is 1 at the skipped
    column, so it is pi over that column's entry, which is positive.
    """
    n = len(rows)
    la.check_budget(n, ELIMINATION_BUDGET, "a stationary law by elimination", "elimination")
    m = [[rows[i][j] - (1 if i == j else 0) for i in range(n)] for j in range(n)]
    r, pivots = la.rref(m)
    free = next((c for c, pivot in enumerate(pivots) if c != pivot), n - 1)
    v = [-row[free] for row in r[:n - 1]]
    v.insert(free, 1)
    return la.law([(x.numerator, x.denominator) for x in v])


def kolmogorov(p) -> bool:
    """Cycle criterion: reversible iff every cycle product is direction-free.

    The criterion needs a strictly positive stationary distribution, that
    is, the closed classes must cover every state.  The map from a cycle to
    the ratio of its forward and backward products is a homomorphism on the
    cycle space of the support graph, and the fundamental cycles of a
    spanning forest are a basis of that space.  So every cycle balances
    exactly when the fundamental cycles do, which is exactly when the
    spanning-tree potentials satisfy every detailed-balance equation.  No
    cycle is enumerated, and n is not capped.

    Potentials need a symmetric support, in which every class is closed, so
    the closed classes are scanned only when the potentials fail.
    """
    if _potentials(p) is not None:
        return True
    if sum(len(comp) for comp in _closed_classes(p)) != len(p):
        raise NoPositiveStationary("cycle criterion needs a strictly positive "
                                   "stationary distribution")
    return False


# steps simulate may take: the trajectory holds steps + 1 states (8 MB of
# list at the budget, and no other copy: `cli` formats its CSV about a
# thousand lines at a time), so a huge count is refused instead of exhausting
# memory
SIMULATION_BUDGET = 1_000_000


def simulate(rows, x0: int, steps: int, seed: int) -> list:
    """The seeded trajectory, steps + 1 states from x0, by inverse-CDF
    sampling on float row copies; 0 <= steps <= SIMULATION_BUDGET.

    The rows may hold Fractions or floats: rows made by operator.truediv
    (`transition_matrix`, and so for a lambda walk) are float() of the exact
    rows, so they give the same cumulative sums and the same trajectory.
    """
    n = len(rows)
    if not 0 <= x0 < n:
        raise OutOfRange(f"start state {x0} outside 0..{n - 1}")
    if steps < 0:
        raise OutOfRange(f"steps must be >= 0, got {steps}")
    if steps > SIMULATION_BUDGET:
        raise OutOfRange(f"steps must be <= {SIMULATION_BUDGET}, the simulation budget, "
                         f"got {steps}")
    cum = [[*accumulate(map(float, row[:-1])), 1.0] for row in rows]
    traj = [x0]
    append = traj.append
    x = x0
    # random() < 1.0 never meets the sentinel 2.0, and is < the 1.0 that
    # ends each row of cum, so the index is at most n - 1
    for u in islice(iter(random.Random(seed).random, 2.0), steps):
        x = bisect_right(cum[x], u)
        append(x)
    return traj


def visit_frequencies(trajectory: list, n: int) -> list:
    """The share of the trajectory's states at each of 0..n-1, as floats."""
    counts = Counter(trajectory)
    return [counts[x] / len(trajectory) for x in range(n)]


def total_variation(p, q) -> float:
    return 0.5 * sum(abs(float(a) - float(b)) for a, b in zip(p, q))


def mixing_report(spec: WeightSpec, n: int) -> MixingReport:
    """Fit the geometric decay of ||P^t[0]/pi - 1||_inf from exact rows.

    Row 0 of P^t, t = 1..40, is stepped by matmul and stays rational; floats
    only enter at the norm.  The rate is the least-squares slope of log-norm
    against t over steps 21..40, where the second eigenvalue dominates.  The
    fit needs n >= 2 (one state is mixed at once), refused before any step,
    and two norms in the window that are nonzero as floats, refused after.
    """
    if n < 2:
        raise OutOfRange(f"mixing needs n >= 2, got {n}")
    p = transition_matrix(spec, n)
    pi = invariant_closed_form(spec, n)
    row = p[0]
    norms = []
    for _ in range(40):
        norms.append(float(max(abs(row[z] / pi[z] - 1) for z in range(n))))
        row = la.matmul([row], p)[0]
    pts = [(t + 1, math.log(v)) for t, v in enumerate(norms) if v > 0 and t + 1 > 20]
    if len(pts) < 2:
        raise OutOfRange(f"mixing fit needs two nonzero norms in steps 21..40, got {len(pts)}")
    tbar = sum(t for t, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    slope = sum((t - tbar) * (y - ybar) for t, y in pts) / sum((t - tbar) ** 2 for t, _ in pts)
    return MixingReport(family_sequence(spec, n)[1], math.exp(slope))


def subset_walk(m: int, p) -> SubsetWalk:
    """Kronecker power of the 2-state walk [[0,1],[p,1-p]] on subset bitmasks.

    Bit i of the state index records whether element i+1 is in the subset.
    The subset size performs the gamma(c) walk on m+1 states, c = 1/p - 1,
    so pi_X = pi^gamma(c)_|X| / C(m, |X|) = p^(m-|X|) / (1+p)^m and each
    signed eigenvalue (-p)^e of gamma(c) repeats C(m, e) times.  The dense
    matrix is `subset_matrix`.
    """
    p = as_rational(p)
    if not 0 < p < 1:
        raise OutOfRange(f"need 0 < p < 1, got {p}")
    if not 1 <= m <= 10:
        raise OutOfRange("subset walk supported for 1 <= m <= 10")
    spec = GammaC(1 / p - 1)
    by_size = [w / math.comb(m, k) for k, w in enumerate(invariant_closed_form(spec, m + 1))]
    pi = [by_size[bin(s).count("1")] for s in range(2**m)]
    eigenvalues = [x for e, v in enumerate(signed_eigenvalues(family_sequence(spec, m + 1)))
                   for x in [v] * math.comb(m, e)]
    return SubsetWalk(m, p, pi, eigenvalues)


def subset_matrix(sub: SubsetWalk) -> list:
    """The rows of the dense 2^m x 2^m transition matrix of a subset walk.

    It is the Kronecker power of the 2-state walk [[0,1],[p,1-p]]; the
    factors are ordered so that factor i acts on bit i.  The power is
    stochastic, and an entry [x][z] is nonzero only where every bit has
    x_i + z_i >= 1, so x + z >= 2^m - 1: it is anti-triangular, and it is
    not validated again.
    """
    q = [[Fraction(0), Fraction(1)], [sub.p, 1 - sub.p]]
    mat = q
    for _ in range(sub.m - 1):
        mat = la.kron(q, mat)
    return mat
