"""Involutive random walks on {0, ..., n-1}.

The walk at state x picks y <= x with probability proportional to the weight
of [y, x] and steps to y* = n-1-y.  Its transition matrix is
P[x][z] = w[z*, x] / N_x, which is anti-triangular:
P[x][z] = 0 whenever x + z < n - 1.  Writing H for the lower-triangular
down-step matrix H[x][y] = w[y, x] / N_x and J for the anti-diagonal
permutation, P = H J.

This module provides exact construction, stationary distributions (closed
forms, detailed-balance potentials, and exact elimination for walks that are
not reversible), ergodicity reports, reversibility checks (detailed balance and
the cycle-product criterion, both decided by one spanning-tree check),
simulation, the two-step down-up walk, and the Kronecker-power walk on subsets.

One engine decides reversibility.  Detailed balance pi_x P[x][z] = pi_z P[z][x]
fixes the ratio pi_z / pi_x along every edge of the support graph, so the
potentials are spread over a spanning forest and every equation is then
checked exactly (_potentials).  The stationary law of a reversible walk, the
Kolmogorov criterion and reversibility against some positive distribution are
all read from that one check.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _linalg as la
from .errors import (
    IndexOutOfDomain,
    NoPositiveStationary,
    NotIrreducible,
    OutOfRange,
    UnsupportedFamily,
    ZeroNorm,
)
from .exactnum import as_rational
from .weights import (Custom, GammaC, WeightSpec, atomic_part, domain_limit, down_step_diagonal,
                      norm_table, weight_table)


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
    """An exact probability law; a public Distribution(...) is validated."""

    n: int
    weights: list

    def __post_init__(self):
        self.weights = [as_rational(w) for w in self.weights]
        if any(w < 0 for w in self.weights):
            raise OutOfRange("distribution entries must be non-negative")
        if sum(self.weights) != 1:
            raise OutOfRange("distribution entries must sum to 1")

    @classmethod
    def _built(cls, weights: list) -> "Distribution":
        """A law of non-negative Fractions built here to sum to 1, unchecked."""
        law = object.__new__(cls)
        law.n, law.weights = len(weights), weights
        return law

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
    pi: Distribution
    eigenvalues: list  # expanded multiset, (-p)^e repeated binom(m, e) times

    @cached_property
    def walk(self) -> WalkMatrix:
        """The dense 2^m x 2^m transition matrix, built on first access.

        It is the Kronecker power of the 2-state walk [[0,1],[p,1-p]]; the
        factors are ordered so that factor i acts on bit i.
        """
        q = [[Fraction(0), Fraction(1)], [self.p, 1 - self.p]]
        mat = q
        for _ in range(self.m - 1):
            mat = la.kron(q, mat)
        return WalkMatrix.from_p(mat)


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


def _potentials(w):
    """Detailed-balance potentials of a walk, from one spanning forest.

    Detailed balance pi_x P[x][z] = pi_z P[z][x] needs a symmetric support
    and forces pi_z = pi_x P[x][z] / P[z][x] along every support edge.  So
    each tree of a spanning forest of the support graph is grown from a root
    with pi = 1, and then every equation is checked exactly, on integers:
    (a/b)(p/q) == (c/d)(r/s) as a*p*d*s == c*r*b*q.  Returns (pi, trees),
    pi unnormalized with pi = 1 at each root and trees the number of trees
    grown (the connected components of the support), or None when the
    support is not symmetric or some equation fails.

    Only ratios P[x][z] / P[z][x] enter, so the verdict is the same for any
    positive multiple c * P, and the entries may be ints: the integer L * P
    of a lattice walk is decided without forming P.
    """
    rows = _rows(w)
    n = len(rows)
    nbrs = [[z for z in range(n) if row[z] and z != x] for x, row in enumerate(rows)]
    if not all(rows[z][x] for x in range(n) for z in nbrs[x]):
        return None
    pi = [None] * n
    trees = 0
    for root in range(n):
        if pi[root] is not None:
            continue
        trees += 1
        pi[root] = Fraction(1)
        stack = [root]
        while stack:
            x = stack.pop()
            for z in nbrs[x]:
                if pi[z] is None:
                    pi[z] = pi[x] * rows[x][z] / rows[z][x]
                    stack.append(z)
    num = [v.numerator for v in pi]
    den = [v.denominator for v in pi]
    for x in range(n):
        for z in nbrs[x]:
            if z > x:
                forward, backward = rows[x][z], rows[z][x]
                if (num[x] * forward.numerator * den[z] * backward.denominator
                        != num[z] * backward.numerator * den[x] * forward.denominator):
                    return None
    return pi, trees


def _normalized(weights) -> Distribution:
    """Non-negative Fraction weights scaled to sum to 1."""
    total = sum(weights)
    return Distribution._built([v / total for v in weights])


def stationary(w) -> Distribution:
    """The unique pi with pi P = pi, for a walk whose rows sum to 1.

    When the potentials exist and span one tree, they are pi.  The support
    is then symmetric and connected, so the walk is irreducible and its
    stationary law unique; and summing pi_x P[x][z] = pi_z P[z][x] over x
    gives (pi P)_z = pi_z, because row z of P sums to 1.  Walks that are not
    reversible (most --lambda and --custom walks) or are reducible fall back
    to exact elimination on (P - I)^T.
    """
    found = _potentials(w)
    if found is not None and found[1] == 1:
        return _normalized(found[0])
    return _stationary_by_elimination(_rows(w))


def _stationary_by_elimination(rows) -> Distribution:
    n = len(rows)
    m = [[rows[i][j] - (1 if i == j else 0) for i in range(n)] for j in range(n)]
    kernel = la.kernel_basis(m)
    if len(kernel) != 1:
        raise NotIrreducible(f"stationary space has dimension {len(kernel)}")
    v = kernel[0]
    if sum(v) == 0:
        raise NotIrreducible("kernel vector has zero mass")
    return _normalized(v)


def invariant_closed_form(spec: WeightSpec, n: int) -> Distribution:
    """Stationary law of a named family: pi_x ∝ alpha_{x*} N_x, alpha the atomic
    part of w = alpha * beta (`weights.atomic_part`), since pi_x P[x][z] is then
    alpha_{x*} alpha_{z*} beta[z*, x], symmetric as beta is star-symmetric."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("closed-form invariant only for named families")
    if n < 1 or n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} is outside the weight's domain")
    alpha, norms = atomic_part(spec, n), norm_table(spec, n)
    return _normalized([alpha[n - 1 - x] * nx for x, nx in enumerate(norms)])


def detailed_balance(w, pi) -> bool:
    """Exact check of pi_x P[x][z] == pi_z P[z][x] for all pairs."""
    rows = _rows(w)
    n = len(rows)
    pv = list(pi)
    return all(pv[x] * rows[x][z] == pv[z] * rows[z][x] for x in range(n) for z in range(x, n))


def reversible_with_some_distribution(w):
    """Decide reversibility against any strictly positive distribution.

    Returns (True, pi) or (False, None), pi the normalized potentials.  For
    reducible chains the split of mass between components is arbitrary.
    """
    found = _potentials(w)
    if found is None:
        return False, None
    return True, _normalized(found[0])


def kolmogorov(w) -> bool:
    """Cycle criterion: reversible iff every cycle product is direction-free.

    The criterion needs a strictly positive stationary distribution, that
    is, no communicating class may leak.  The map from a cycle to the ratio
    of its forward and backward products is a homomorphism on the cycle
    space of the support graph, and the fundamental cycles of a spanning
    forest are a basis of that space.  So every cycle balances exactly when
    the fundamental cycles do, which is exactly when the spanning-tree
    potentials satisfy every detailed-balance equation.  No cycle is
    enumerated, and n is not capped.
    """
    rows = _rows(w)
    n = len(rows)
    for comp in _sccs(support(rows)):
        comp_set = set(comp)
        if any(rows[x][z] != 0 and z not in comp_set for x in comp for z in range(n)):
            raise NoPositiveStationary(
                "cycle criterion needs a strictly positive stationary distribution"
            )
    return _potentials(rows) is not None


def simulate(w, x0: int, steps: int, seed: int) -> SimulationResult:
    """Seeded trajectory by inverse-CDF sampling on float row copies."""
    rows = _rows(w)
    n = len(rows)
    if not 0 <= x0 < n:
        raise OutOfRange(f"start state {x0} outside 0..{n - 1}")
    if steps < 0:
        raise OutOfRange(f"steps must be >= 0, got {steps}")
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


def subset_walk(m: int, p) -> SubsetWalk:
    """Kronecker power of the 2-state walk [[0,1],[p,1-p]] on subset bitmasks.

    Bit i of the state index records whether element i+1 is in the subset.
    The subset size performs the gamma(c) walk on m+1 states, c = 1/p - 1,
    so pi_X = pi^gamma(c)_|X| / C(m, |X|) = p^(m-|X|) / (1+p)^m and each
    signed eigenvalue (-p)^e of gamma(c) repeats C(m, e) times.  The dense
    matrix is built only when `walk` is read.
    """
    p = as_rational(p)
    if not 0 < p < 1:
        raise OutOfRange(f"need 0 < p < 1, got {p}")
    if not 1 <= m <= 10:
        raise OutOfRange("subset walk supported for 1 <= m <= 10")
    spec = GammaC(1 / p - 1)
    by_size = [w / math.comb(m, k) for k, w in enumerate(invariant_closed_form(spec, m + 1))]
    pi = [by_size[bin(s).count("1")] for s in range(2**m)]
    eigenvalues = []
    for e, lam in enumerate(down_step_diagonal(spec, m + 1)):
        eigenvalues.extend([(-1) ** e * lam] * math.comb(m, e))
    return SubsetWalk(m, p, Distribution._built(pi), eigenvalues)
