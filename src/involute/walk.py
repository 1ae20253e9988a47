"""Involutive random walks on {0, ..., n-1}.

The walk at state x picks y <= x with probability proportional to the weight
of [y, x] and steps to y* = n-1-y.  Its transition matrix is
P[x][z] = w[z*, x] / N_x, which is anti-triangular:
P[x][z] = 0 whenever x + z < n - 1.  Writing H for the lower-triangular
down-step matrix H[x][y] = w[y, x] / N_x and J for the anti-diagonal
permutation, P = H J.

This module provides exact construction, stationary distributions (both by
closed form and by exact elimination), ergodicity reports, reversibility
checks (detailed balance and the cycle-product criterion), simulation, the
two-step down-up walk, and the Kronecker-power walk on subsets.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la
from .errors import (
    IndexOutOfDomain,
    NoPositiveStationary,
    NotIrreducible,
    OutOfRange,
    UnsupportedFamily,
    ZeroNorm,
)
from .exactnum import as_rational, binom
from .weights import Custom, GammaAB, GammaC, WeightSpec, domain_limit, norm_table, weight_table

KOLMOGOROV_EXHAUSTIVE_CAP = 12


@dataclass
class WalkMatrix:
    """Transition matrix P and down-step matrix H of an involutive walk."""

    n: int
    P: list
    H: list

    @classmethod
    def from_p(cls, p_rows) -> "WalkMatrix":
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
        return cls(n, rows, [row[::-1] for row in rows])  # H = P J


@dataclass
class Distribution:
    n: int
    weights: list

    def __post_init__(self):
        self.weights = [as_rational(w) for w in self.weights]
        if any(w < 0 for w in self.weights):
            raise OutOfRange("distribution entries must be non-negative")
        if sum(self.weights) != 1:
            raise OutOfRange("distribution entries must sum to 1")

    def __getitem__(self, i):
        return self.weights[i]

    def __iter__(self):
        return iter(self.weights)


@dataclass
class ErgodicityReport:
    irreducible: bool
    aperiodic: bool
    ergodic: bool
    communicating_classes: list


@dataclass
class SimulationResult:
    trajectory: list
    empirical: list  # visit frequencies as floats


@dataclass
class SubsetWalk:
    """Down-up walk on subsets of {1..m}; state bitmask bit i = element i+1."""

    m: int
    p: Fraction
    walk: WalkMatrix
    pi: Distribution
    eigenvalues: list  # expanded multiset, (-p)^e repeated binom(m, e) times


def _rows(w) -> list:
    return w.P if isinstance(w, WalkMatrix) else w


def transition_matrix(spec: WeightSpec, n: int) -> WalkMatrix:
    """Exact P and H for the weight on {0, ..., n-1}."""
    if n < 1 or n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} is outside the weight's domain")
    norms = norm_table(spec, n)
    if any(nx == 0 for nx in norms):
        bad = next(x for x in range(n) if norms[x] == 0)
        raise ZeroNorm(f"N_{bad} = 0, no step distribution at state {bad}")
    h = [
        [v / nx for v in row] + [Fraction(0)] * (n - 1 - x)
        for x, (row, nx) in enumerate(zip(weight_table(spec, n), norms))
    ]
    return WalkMatrix(n, [row[::-1] for row in h], h)  # P = H J


def support(w) -> list:
    rows = _rows(w)
    n = len(rows)
    return [[z for z in range(n) if rows[x][z] != 0] for x in range(n)]


def _sccs(adj: list) -> list:
    """Strongly connected components, Tarjan's algorithm, iterative."""
    n = len(adj)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                u = adj[v][i]
                if index[u] is None:
                    work[-1] = (v, i + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sorted(comps)


def _class_period(adj: list, comp: list) -> int:
    """gcd of cycle lengths inside one strongly connected component."""
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
    return abs(g)


def ergodicity(w) -> ErgodicityReport:
    """Irreducibility by strongly connected components, aperiodicity by
    the gcd of cycle lengths within each class."""
    adj = support(w)
    comps = _sccs(adj)
    irreducible = len(comps) == 1
    aperiodic = True
    for comp in comps:
        has_cycle = len(comp) > 1 or comp[0] in adj[comp[0]]
        if has_cycle and _class_period(adj, comp) != 1:
            aperiodic = False
    return ErgodicityReport(irreducible, aperiodic, irreducible and aperiodic, comps)


def stationary(w) -> Distribution:
    """The unique pi with pi P = pi, by exact elimination on (P - I)^T."""
    rows = _rows(w)
    n = len(rows)
    m = [[rows[i][j] - (1 if i == j else 0) for i in range(n)] for j in range(n)]
    kernel = la.kernel_basis(m)
    if len(kernel) != 1:
        raise NotIrreducible(f"stationary space has dimension {len(kernel)}")
    v = kernel[0]
    total = sum(v)
    if total == 0:
        raise NotIrreducible("kernel vector has zero mass")
    return Distribution(n, [x / total for x in v])


def invariant_closed_form(spec: WeightSpec, n: int) -> Distribution:
    """Closed-form stationary distribution for the named families."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("closed-form invariant only for named families")
    if n < 1 or n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} is outside the weight's domain")
    if isinstance(spec, GammaAB):
        raw = [
            binom(n - 1 - x + spec.a, n - 1 - x) * binom(x + spec.a + spec.b + 1, x)
            for x in range(n)
        ]
        total = binom(n + 2 * spec.a + spec.b + 1, n - 1)
    elif isinstance(spec, GammaC):
        # alpha_{x*} N_x with atomic part binom(n-1, y); the binomial theorem
        # gives the normalization (c+2)^(n-1)
        raw = [binom(n - 1, x) * (spec.c + 1) ** x for x in range(n)]
        total = (spec.c + 2) ** (n - 1)
    else:
        ap, bp = spec.a_prime, spec.b_prime
        raw = [binom(ap - 1, n - 1 - x) * binom(ap + bp - 2, x) for x in range(n)]
        total = binom(2 * ap + bp - 3, n - 1)
    return Distribution(n, [r / total for r in raw])


def detailed_balance(w, pi) -> bool:
    """Exact check of pi_x P[x][z] == pi_z P[z][x] for all pairs."""
    rows = _rows(w)
    n = len(rows)
    pv = list(pi)
    return all(pv[x] * rows[x][z] == pv[z] * rows[z][x] for x in range(n) for z in range(x, n))


def _support_symmetric(rows) -> bool:
    """P[x][z] != 0 exactly when P[z][x] != 0; reversibility needs this."""
    n = len(rows)
    return all(
        (rows[x][z] == 0) == (rows[z][x] == 0) for x in range(n) for z in range(x + 1, n)
    )


def reversible_with_some_distribution(w):
    """Decide reversibility against any strictly positive distribution.

    Detailed balance forces pi ratios along every edge of the support graph,
    so propagate ratios over a spanning forest and verify all equations.
    Returns (True, pi) or (False, None).  pi is normalized and positive; for
    reducible chains the split of mass between components is arbitrary.
    """
    rows = _rows(w)
    n = len(rows)
    if not _support_symmetric(rows):
        return False, None
    pi = [None] * n
    for root in range(n):
        if pi[root] is not None:
            continue
        pi[root] = Fraction(1)
        queue = [root]
        while queue:
            x = queue.pop()
            for z in range(n):
                if z == x or rows[x][z] == 0:
                    continue
                if pi[z] is None:
                    pi[z] = pi[x] * rows[x][z] / rows[z][x]
                    queue.append(z)
    if not all(pi[x] * rows[x][z] == pi[z] * rows[z][x] for x in range(n) for z in range(x, n)):
        return False, None
    total = sum(pi)
    return True, Distribution(n, [p / total for p in pi])


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


def kolmogorov(w) -> bool:
    """Cycle criterion: reversible iff every cycle product is direction-free.

    Cycles are enumerated exhaustively, which is capped at n = 12.
    """
    rows = _rows(w)
    n = len(rows)
    # a strictly positive stationary distribution exists iff no class leaks
    report = ergodicity(rows)
    for comp in report.communicating_classes:
        comp_set = set(comp)
        if any(rows[x][z] != 0 and z not in comp_set for x in comp for z in range(n)):
            raise NoPositiveStationary(
                "cycle criterion needs a strictly positive stationary distribution"
            )
    # asymmetric support kills reversibility before any cycle is formed
    if not _support_symmetric(rows):
        return False
    if n > KOLMOGOROV_EXHAUSTIVE_CAP:
        raise OutOfRange(
            f"exhaustive cycle enumeration capped at n={KOLMOGOROV_EXHAUSTIVE_CAP}"
        )
    adj_sets = [
        {z for z in range(n) if z != x and rows[x][z] != 0} for x in range(n)
    ]
    for cyc in _undirected_cycles(adj_sets):
        if not _cycle_balanced(rows, list(cyc)):
            return False
    return True


def _cycle_balanced(rows, cyc: list) -> bool:
    forward = Fraction(1)
    backward = Fraction(1)
    k = len(cyc)
    for i in range(k):
        forward *= rows[cyc[i]][cyc[(i + 1) % k]]
        backward *= rows[cyc[(i + 1) % k]][cyc[i]]
    return forward == backward


def simulate(w, x0: int, steps: int, seed: int) -> SimulationResult:
    """Seeded trajectory by inverse-CDF sampling on float row copies."""
    rows = _rows(w)
    n = len(rows)
    if not 0 <= x0 < n:
        raise OutOfRange(f"start state {x0} outside 0..{n - 1}")
    cum = []
    for row in rows:
        acc = 0.0
        c = []
        for v in row:
            acc += float(v)
            c.append(acc)
        c[-1] = 1.0
        cum.append(c)
    rng = random.Random(seed)
    traj = [x0]
    counts = [0] * n
    counts[x0] += 1
    x = x0
    for _ in range(steps):
        x = bisect_right(cum[x], rng.random())
        if x >= n:
            x = n - 1
        traj.append(x)
        counts[x] += 1
    total = steps + 1
    return SimulationResult(traj, [c / total for c in counts])


def total_variation(p, q) -> float:
    return 0.5 * sum(abs(float(a) - float(b)) for a, b in zip(p, q))


def two_step(w) -> list:
    """P squared: the down-up walk taking two involutive steps at a time."""
    rows = _rows(w)
    return la.matmul(rows, rows)


def subset_walk(m: int, p) -> SubsetWalk:
    """Kronecker power of the 2-state walk [[0,1],[p,1-p]] on subset bitmasks.

    Bit i of the state index records whether element i+1 is in the subset;
    the Kronecker factors are ordered to match, so factor i acts on bit i.
    """
    p = as_rational(p)
    if not 0 < p < 1:
        raise OutOfRange(f"need 0 < p < 1, got {p}")
    if not 1 <= m <= 10:
        raise OutOfRange("subset walk supported for 1 <= m <= 10")
    q = [[Fraction(0), Fraction(1)], [p, 1 - p]]
    mat = q
    for _ in range(m - 1):
        mat = la.kron(q, mat)
    size = 2**m
    denom = (1 + p) ** m
    pi = [p ** (m - bin(s).count("1")) / denom for s in range(size)]
    eigenvalues = []
    for e in range(m + 1):
        eigenvalues.extend([(-p) ** e] * math.comb(m, e))
    return SubsetWalk(m, p, WalkMatrix.from_p(mat), Distribution(size, pi), eigenvalues)
