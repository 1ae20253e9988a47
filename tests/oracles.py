"""Direct readings of the definitions that the library never needs at run
time: the tests use them as oracles for the closed forms and fast paths."""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from fractions import Fraction
from operator import mul

import networkx as nx
import numpy as np
import pytest
import sympy

from involute import _linalg as la
from involute import walk
from involute.classify import NotClassified, classification_label
from involute.continuum import _unit_panel, jacobi_eigenfunctions
from involute.errors import (IndexOutOfDomain, MalformedWeight, NoPositiveStationary,
                             NotIrreducible, OutOfRange)
from involute.exactnum import as_rational, binom
from involute.spectral import _oriented, right_eigenvectors, signed_eigenvalues
from involute.transform import _lattice_records
from involute.walk import _potentials, ergodicity, kolmogorov, stationary
from involute.weights import Custom, DeltaAB, GammaAB, GammaC, domain_limit, family_sequence


# named family specs as their CLI flags, and the gamma(a, b) of the bench
NAMED_SPECS = [
    ("--gamma", "0", "0"), ("--gamma", "1", "1"), ("--gamma", "1", "1/3"), ("--gamma", "2", "2/3"),
    ("--gamma", "2", "4/3"), ("--gamma", "1", "0"), ("--gamma", "-1/3", "-2/3"),
    ("--gamma", "-0.5", "0"), ("--gammac", "1/3"), ("--gammac", "1"), ("--gammac", "1/2"),
    ("--delta", "4", "2"), ("--delta", "21/2", "43/4"), ("--delta", "5/2", "7/2"),
]
BENCH_GAMMA = [(a, b) for a in ("1", "2") for b in ("1/3", "2/3", "4/3")]


def spec_from_flags(flags):
    """The weight spec that the flags of NAMED_SPECS name."""
    kind = {"--gamma": GammaAB, "--gammac": GammaC, "--delta": DeltaAB}[flags[0]]
    return kind(*map(Fraction, flags[1:]))


def weight_value(spec, y: int, x: int) -> Fraction:
    """Exact value of the weight on the interval [y, x], inside its domain."""
    if y < 0 or y > x:
        raise IndexOutOfDomain(f"need 0 <= y <= x, got y={y}, x={x}")
    if x >= domain_limit(spec):
        raise IndexOutOfDomain(f"x={x} is outside the weight's domain")
    return closed_form_weight(spec, y, x)


def closed_form_weight(spec, y: int, x: int) -> Fraction:
    """The family formulas of the `weights` docstring, one binom per factor;
    a custom table's entry, 0 when missing."""
    if isinstance(spec, GammaAB):
        return binom(y + spec.a, y) * binom(spec.b + x - y, x - y)
    if isinstance(spec, GammaC):
        return binom(x, y) * spec.c ** (x - y)
    if isinstance(spec, DeltaAB):
        return binom(spec.a_prime - 1, y) * binom(spec.b_prime - 1, x - y)
    return spec.table.get((y, x), Fraction(0))


def _check_domain(spec, n: int):
    """Refuse an n outside 1..domain_limit(spec), as the library does."""
    if not 1 <= n <= domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} is outside the weight's domain")


def weight_rows(spec, n: int) -> list:
    """The weight rows [w[0, x], ..., w[x, x]] for x < n, by `closed_form_weight`,
    once n is inside the weight's domain."""
    _check_domain(spec, n)
    return [[closed_form_weight(spec, y, x) for y in range(x + 1)] for x in range(n)]


def atomic_part(spec, n: int) -> list:
    """alpha_y for y < n, with w[y, x] = alpha_y * beta[y, x] and beta
    star-symmetric on n states: the diagonal weight w[y, y], the lower-end
    factor of the weight (its other factor is 1 at x = y), times C(n-1, y)
    for the Pascal-type gamma(c), as C(x, y) C(n-1, x) = C(n-1, y) C(n-1-y, x-y)."""
    pascal = isinstance(spec, GammaC)
    return [closed_form_weight(spec, y, y) * (math.comb(n - 1, y) if pascal else 1)
            for y in range(n)]


def norm_table(spec, n: int) -> list:
    """[N_0, ..., N_{n-1}], each the sum of its column of weights."""
    return [sum(row) for row in weight_rows(spec, n)]


def invariant_by_atomic_part(spec, n: int) -> list:
    """pi_x = alpha_{x*} N_x normalised, one Fraction product and division per
    state: the stationary law of a named family as `weights.invariant_closed_form`
    states it, before the sum is taken on integers."""
    norms = norm_table(spec, n)  # checks n before atomic_part runs
    alpha = atomic_part(spec, n)
    return normalized([alpha[n - 1 - x] * nx for x, nx in enumerate(norms)])


def division_route(spec, n: int) -> tuple:
    """(w, H) by the definitions: the weight rows `weight_rows`, and
    H[x] = [w[0, x] / N_x, ..., w[x, x] / N_x] padded with zeros to length n,
    one Fraction division per entry, N_x the row's sum."""
    w = weight_rows(spec, n)
    h = [[v / sum(row) for v in row] + [Fraction(0)] * (n - 1 - x) for x, row in enumerate(w)]
    return w, h


@dataclass(frozen=True)
class WeightFlags:
    atomic: bool
    star_symmetric: bool
    strictly_positive: bool


def classify_weight(spec, n: int) -> WeightFlags:
    """Decide atomic / star-symmetric / strictly positive by exhaustive check."""
    w = weight_rows(spec, n)
    atomic = True
    star = True
    positive = True
    for x in range(n):
        for y in range(x + 1):
            v = w[x][y]
            if v <= 0:
                positive = False
            if v != w[y][y]:
                atomic = False
            if v != w[n - 1 - y][n - 1 - x]:
                star = False
    return WeightFlags(atomic, star, positive)


def factorize(spec, n: int, pi) -> tuple:
    """(alpha, beta, valid): the weight split into an atomic part alpha and
    a candidate beta = w / alpha.

    alpha_y is proportional to pi_{y*} / N_{y*}, the unique atomic part that
    can work when the walk is reversible with respect to pi; the scalar gauge
    is fixed by alpha_0 = weight[0, 0].  valid reports whether beta came out
    star-symmetric, which happens exactly when the walk is reversible with
    respect to pi.
    """
    w = weight_rows(spec, n)
    pi = [as_rational(p) for p in pi]
    if len(pi) != n or any(p <= 0 for p in pi):
        raise OutOfRange("pi must be a strictly positive vector of length n")
    norms = norm_table(spec, n)
    if any(nx == 0 for nx in norms):
        raise MalformedWeight("a column sum N_x vanishes")
    alpha = [pi[n - 1 - y] / norms[n - 1 - y] for y in range(n)]
    scale = w[0][0] / alpha[0]
    alpha = [a * scale for a in alpha]
    beta = {(y, x): w[x][y] / alpha[y] for x in range(n) for y in range(x + 1)}
    valid = all(
        beta[(y, x)] == beta[(n - 1 - x, n - 1 - y)] for x in range(n) for y in range(x + 1)
    )
    return alpha, beta, valid


def custom_from_down_step(h_rows) -> Custom:
    """Wrap a lower-triangular down-step matrix as a custom weight table."""
    n = len(h_rows)
    table = {(y, x): as_rational(h_rows[x][y]) for x in range(n) for y in range(x + 1)}
    return Custom(n, table)


def charpoly_faddeev_leverrier(a) -> list:
    """[1, c1, ..., cn] of det(X I - A) by Faddeev-LeVerrier on B = D A, D
    the lcm of all denominators: M_1 = B, M_k = B (M_(k-1) + c_(k-1) I) and
    c_k = -tr(M_k) / k, a division that is exact on the integer c_k(B).
    Coefficient k of A is c_k(B) / D^k."""
    n = len(a)
    b, d = la.integer_matrix(a)
    coeffs = [1]
    m = b
    for k in range(1, n + 1):
        if k > 1:
            m = [row[:] for row in m]
            for i in range(n):
                m[i][i] += coeffs[-1]
            m = la.matmul(b, m)
        coeffs.append(-sum(m[i][i] for i in range(n)) // k)
    return [Fraction(c, d**k) for k, c in enumerate(coeffs)]


def identity(n: int) -> list:
    """The n x n identity matrix of Fractions."""
    return [[Fraction(int(x == z)) for z in range(n)] for x in range(n)]


def matvec(a, v) -> list:
    """A v for a matrix of rows and a column vector."""
    return [sum(map(mul, row, v)) for row in a]


def vecmat(v, a) -> list:
    """v A for a row vector and a matrix of rows."""
    return [sum(map(mul, v, col)) for col in zip(*a)]


def normalized(weights) -> list:
    """Rational weights divided by their sum, one Fraction sum and one
    division per entry: the reference for `_linalg.law`."""
    total = sum(weights)
    return [v / total for v in weights]


def two_step(p) -> list:
    """P squared: the down-up walk taking two involutive steps at a time."""
    return la.matmul(p, p)


def simulate_stepwise(rows, x0: int, steps: int, seed: int) -> tuple:
    """(trajectory, empirical) by inverse-CDF sampling one step at a time:
    each state is clamped to n - 1 and counted as it is drawn."""
    n = len(rows)
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
    return traj, [c / total for c in counts]


def pi_inner(pi, v, w) -> Fraction:
    """<v, w> = sum_x pi_x v_x w_x."""
    return sum(p * a * b for p, a, b in zip(pi, v, w))


def detailed_balance(rows, pi) -> bool:
    """Exact check of pi_x P[x][z] == pi_z P[z][x] for all pairs."""
    n = len(rows)
    return all(pi[x] * rows[x][z] == pi[z] * rows[z][x] for x in range(n) for z in range(x, n))


def reversible_with_some_distribution(p):
    """(True, pi) when detailed balance holds against a strictly positive
    law, pi the normalized potentials, else (False, None).  For reducible
    chains the split of mass between components is arbitrary."""
    found = _potentials(p)
    if found is None:
        return False, None
    return True, normalized([Fraction(a, b) for a, b in found[0]])


def zero_accessible(p_rows) -> bool:
    """State 0 is reached from every state: grow the set of states that
    reach 0 until no state joins it."""
    n = len(p_rows)
    reach_0 = {0}
    changed = True
    while changed:
        changed = False
        for x in range(n):
            if x not in reach_0 and any(p_rows[x][z] != 0 and z in reach_0 for z in range(n)):
                reach_0.add(x)
                changed = True
    return len(reach_0) == n


def support_patterns(n: int):
    """Every support pattern of a weight on {0..n-1}: the sets of intervals
    (y, x), y <= x, with a positive weight, each column x holding at least
    one, enumerated as bitmasks over the intervals."""
    cells = [(y, x) for x in range(n) for y in range(x + 1)]
    for mask in range(1 << len(cells)):
        pattern = {cell for i, cell in enumerate(cells) if mask >> i & 1}
        if all(any((y, x) in pattern for y in range(x + 1)) for x in range(n)):
            yield pattern


def pattern_is_ergodic(n: int, pattern) -> bool:
    """Irreducible and aperiodic, decided as primitivity: the walk with this
    support steps from x to n-1-y for each (y, x) in it, and a finite walk is
    irreducible and aperiodic exactly when, for some t, t steps lead from
    every state to every state.  By Wielandt's bound t = (n-1)^2 + 1 serves
    whenever any t does, so the bitmasks of the states reached in exactly
    that many steps decide it."""
    step = [0] * n
    for y, x in pattern:
        step[x] |= 1 << (n - 1 - y)
    reached = [1 << x for x in range(n)]
    for _ in range((n - 1) ** 2 + 1):
        next_reached = []
        for mask in reached:
            union = 0
            for z in range(n):
                if mask >> z & 1:
                    union |= step[z]
            next_reached.append(union)
        reached = next_reached
    return all(mask == (1 << n) - 1 for mask in reached)


def markov_oracle(p) -> dict:
    """The walk's verdicts as networkx and sympy read them, from the rows of
    P alone: its strongly connected classes (sorted lists), each class's
    aperiodicity (None for a single state without a loop, which has no
    cycle), the attracting (closed) classes, whether state 0 is reached from
    every state, pi, the law spanning the nullspace of (P - I)^T when that
    is one-dimensional, and, for an irreducible walk, whether diag(pi) P is
    symmetric (pi and reversible are None otherwise).  Not sympy's
    DiscreteMarkovChain, whose communication_classes can run for minutes on
    a 5-state walk."""
    n = len(p)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((x, z) for x in range(n) for z in range(n) if p[x][z])
    classes = sorted(sorted(c) for c in nx.strongly_connected_components(g))
    aperiodic = [nx.is_aperiodic(g.subgraph(c)) if len(c) > 1 or g.has_edge(c[0], c[0])
                 else None for c in classes]
    closed = sorted(sorted(c) for c in nx.attracting_components(g))
    out = {"classes": classes, "aperiodic": aperiodic, "closed": closed,
           "zero_reachable": all(nx.has_path(g, x, 0) for x in range(n)),
           "pi": None, "reversible": None}
    a = sympy.Matrix([[sympy.Rational(p[z][x].numerator, p[z][x].denominator) - int(x == z)
                       for z in range(n)] for x in range(n)])
    kernel = a.nullspace()
    if len(kernel) == 1:
        pi = [Fraction(int(c.p), int(c.q)) for c in kernel[0] / sum(kernel[0])]
        out["pi"] = pi
        if len(classes) == 1:
            out["reversible"] = all(pi[x] * p[x][z] == pi[z] * p[z][x]
                                    for x in range(n) for z in range(n))
    return out


def cycle_gcd(p, comp) -> int:
    """The gcd of the lengths of the simple cycles among the states comp of
    the walk with rows p, loops included, as networkx lists them: 0 when
    there is none."""
    g = nx.DiGraph()
    g.add_nodes_from(comp)
    g.add_edges_from((x, z) for x in comp for z in comp if p[x][z])
    return math.gcd(*map(len, nx.simple_cycles(g)))


def _assert_verdicts_match_the_markov_oracle(p):
    """Every walk verdict against `oracles.markov_oracle`.  A walk is
    reversible against a strictly positive law exactly when each of its
    classes is closed and, as a walk of its own, irreducible and reversible,
    so the oracle is asked once more for each class of a reducible walk."""
    want = markov_oracle(p)
    report = ergodicity(p)
    assert sorted(map(sorted, report.communicating_classes)) == want["classes"]
    assert report.irreducible is (len(want["classes"]) == 1)
    assert report.aperiodic is (False not in want["aperiodic"])
    assert sorted(map(sorted, walk._closed_classes(p))) == want["closed"]
    assert walk._zero_reachable(p) is want["zero_reachable"]
    if want["pi"] is None:
        with pytest.raises(NotIrreducible):
            stationary(p)
    else:
        assert stationary(p) == want["pi"]
    if want["classes"] == want["closed"]:
        reversible = all(markov_oracle([[p[x][z] for z in c] for x in c])["reversible"]
                         for c in want["closed"])
        assert kolmogorov(p) is reversible
    else:
        reversible = False
        with pytest.raises(NoPositiveStationary):
            kolmogorov(p)
    assert (walk._potentials(p) is not None) is reversible
    return want


def pascal_column(n: int, d: int) -> list:
    """v(d): the column vector (binom(0,d), ..., binom(n-1,d))."""
    return [binom(x, d) for x in range(n)]


def pascal_matrix(n: int) -> list:
    """B[x][y] = binom(x, y)."""
    return [[binom(x, y) for y in range(n)] for x in range(n)]


def pascal_inverse(n: int) -> list:
    """B^-1[x][y] = (-1)^(x+y) binom(x, y)."""
    return [[(-1) ** (x + y) * binom(x, y) for y in range(n)] for x in range(n)]


def stochastic_lattice(n: int, max_denominator: int) -> tuple:
    """Every stochastic lambda of length n with entries p/q, q <= max_denominator,
    on integers: (L, [(L, lambda_1 L, ..., lambda_{n-1} L), ...]), the
    sequences of `transform._lattice_records` sorted.  The order is that of
    the sequences themselves, as all share the one scale L."""
    scale, records = _lattice_records(n, max_denominator)
    return scale, sorted(scaled for scaled, _ in records)


def stochastic_grid(n: int, max_denominator: int) -> list:
    """The stochastic lattice as sorted lists of Fractions lambda_y = v / L."""
    scale, lattice = stochastic_lattice(n, max_denominator)
    return [[Fraction(v, scale) for v in scaled] for scaled in lattice]


def oracle_dict(record) -> dict:
    """A conjecture record as JSON-ready values, each rational as its `str`:
    `json.dumps` of it is the line `cli.cmd_conjecture` prints for the record."""
    return {
        "lambda": list(map(str, record.lam)),
        # every record is a point of the stochastic lattice
        "stochastic": True,
        "reversible": record.reversible,
        "classification": None
        if record.classification is None
        else classification_label(record.classification),
    }


def uncut_lattice(n: int, max_denominator: int) -> list:
    """`stochastic_lattice`'s records, enumerated with the floor alone: every
    suffix whose alternating sums are non-negative is extended, and
    lambda_0 = L is tested only once the suffix is whole."""
    scale = math.lcm(*range(1, max_denominator + 1))
    values = sorted(
        {p * (scale // q) for q in range(1, max_denominator + 1) for p in range(q + 1)}
    )
    records = []

    def extend(suffix: tuple, row: list):
        floor = sum(row)
        if len(suffix) == n - 1:
            if floor <= scale:
                records.append((scale, *suffix))
            return
        for v in values[bisect_left(values, floor):]:
            below = [v]
            for x in row:
                below.append(below[-1] - x)
            extend((v, *suffix), below)

    extend((), [])
    return sorted(records)


def clear_denominators(v) -> list:
    """A rational vector scaled to coprime integers, first nonzero entry > 0."""
    return _oriented(la.primitive(la.integer_row(v)[0]))


def a_from_mu_nu(mu: Fraction, nu: Fraction) -> Fraction:
    return mu * (mu - nu) / (nu - mu * mu) - 1


def b_from_mu_nu(mu: Fraction, nu: Fraction) -> Fraction:
    return (1 - mu) * (mu - nu) / (nu - mu * mu) - 1


def params_by_fractions(mu: Fraction, nu: Fraction, n: int):
    """The (mu, nu) case split of the `classify` docstring in Fraction
    arithmetic: the closed forms for a, b and c, compared with mu^2, and the
    ladder bound floor((1 - mu) / mu (n - 2)) + 2 on an integer b'."""
    if not (1 > mu > nu >= 0):
        raise OutOfRange(f"need 1 > mu > nu >= 0, got mu={mu}, nu={nu}")
    if n < 3:
        raise OutOfRange("classification needs n >= 3")
    musq = mu * mu
    if nu > musq:
        return GammaAB(a_from_mu_nu(mu, nu), b_from_mu_nu(mu, nu))
    if nu == musq:
        return GammaC((1 - mu) / mu)
    spec = DeltaAB(-a_from_mu_nu(mu, nu), -b_from_mu_nu(mu, nu))
    if n > domain_limit(spec) or (
        spec.b_prime.denominator == 1
        and spec.b_prime < math.floor((1 - mu) / mu * (n - 2)) + 2
    ):
        return NotClassified(f"delta({spec.a_prime},{spec.b_prime}) does not reach n={n}")
    return spec


def kappa_norm(a: int, b: int, x: float) -> float:
    """N(kappa)_x = x^(a+b+1) / ((a+b+1) binom(a+b, b)), the integral of
    y^a (x-y)^b over [0, x]; the library only uses it cancelled."""
    return x ** (a + b + 1) / ((a + b + 1) * math.comb(a + b, b))


def beta_moment(a: int, b: int, k: int) -> Fraction:
    """Exact integral of (1-x)^a x^(a+b+1+k) over [0, 1]."""
    p = a + b + k + 1
    return Fraction(math.factorial(p) * math.factorial(a), math.factorial(p + a + 1))


def kappa_lp_panel(a: int, b: int, g, degree: int, xs) -> np.ndarray:
    """(L_P g)(x) for kappa(a, b) at every x of the array xs, one
    polynomial at a time: the reference for the stacked pass of
    `continuum._lp_pass`, which integrates every g_d on the panel of
    degree = DEGREE_CAP.

    g is a polynomial of degree at most `degree` that evaluates on numpy
    arrays.  After z = 1 - x + x u the integrand (1-u)^a u^b g(z) is a
    polynomial of degree at most a+b+degree in u, so one Gauss-Legendre
    panel on [0, 1] integrates it exactly up to rounding.
    """
    u, w = _unit_panel(a + b + degree)
    kernel = w * (1 - u) ** a * u**b
    x = np.asarray(xs, dtype=float)[:, None]
    values = np.broadcast_to(g(1 - x + x * u), (x.shape[0], u.size))
    return (a + b + 1) * math.comb(a + b, a) * (values @ kernel)


def convergence_by_points(a: int, b: int, degrees, n_list) -> list:
    """`continuum.convergence_table` one size, degree and point at a time in
    plain floats: g_d at each x = i/n, sup-normalization, the sign of the
    first entry above 1e-9 and the sup-distance, all by Python loops."""
    lam = family_sequence(GammaAB(Fraction(a), Fraction(b)), max(n_list, default=1))

    def normalized(values):
        peak = max(abs(v) for v in values)
        return [v / peak for v in values]

    def leading_sign(values):
        return next((1 if v > 0 else -1 for v in values if abs(v) > 1e-9), 0)

    table = [[] for _ in degrees]
    for n in n_list:
        rights = right_eigenvectors(lam[:n], max(degrees))
        gs = [jacobi_eigenfunctions(a, b, max(degrees), i / n) for i in range(n)]
        for d, row in zip(degrees, table):
            w_hat = normalized([float(v) for v in rights[d]])
            g_hat = normalized([float(g[d]) for g in gs])
            if leading_sign(w_hat) != leading_sign(g_hat):
                w_hat = [-v for v in w_hat]
            row.append(max(abs(p - q) for p, q in zip(w_hat, g_hat)))
    return table


def lp_triangular(a: int, b: int, dmax: int) -> list:
    """L_P of kappa(a, b) on polynomials of degree <= dmax, exact over Q.

    Entry [i][k] is the coefficient of x^i in L_P x^k.  Substituting
    z = 1 - x + x u and integrating u^j against the Beta(a+1, b+1) weight,

        L_P x^k = sum_j C(k,j) r_j (1-x)^(k-j) x^j,   r_j = (b+1)_j / (a+b+2)_j.

    Expanding (1-x)^(k-j) and using C(k,j) C(k-j,i-j) = C(k,i) C(i,j), the
    entry is C(k,i) s_i with s_i = sum_j (-1)^(i-j) C(i,j) r_j, which is
    (-1)^i (a+1)_i / (a+b+2)_i by Chu-Vandermonde: the signed eigenvalue
    sigma_i of the discrete gamma(a, b) walk.  So the matrix is Diag(sigma)
    times the transposed Pascal matrix, with the eigenvalues on its diagonal.
    """
    sigma = signed_eigenvalues(family_sequence(GammaAB(a, b), dmax + 1))
    return [[math.comb(k, i) * s for k in range(dmax + 1)] for i, s in enumerate(sigma)]


def jacobi_monic(a: int, b: int, dmax: int) -> list:
    """Monic eigenfunctions g_0, ..., g_dmax of kappa(a, b), exact over Q.

    g_d is the monomial coefficient list of the eigenvector of
    `lp_triangular` for its diagonal entry d, scaled to leading coefficient
    1.  The diagonal entries are distinct (their absolute values fall by the
    factor (a+d+1)/(a+b+d+2) < 1 at each step), so the integer
    back-substitution of `_linalg.triangular_eigenvectors` determines it.
    For the self-adjoint L_P these are the monic orthogonal polynomials of
    the invariant density.
    """
    t = la.integer_matrix(lp_triangular(a, b, dmax))[0]
    return [[Fraction(x, v[-1]) for x in v] for v in la.triangular_eigenvectors(t)]


def jacobi_recurrence_by_back_substitution(a: int, b: int, dmax: int) -> tuple:
    """(alphas, betas, norms) of the monic g_d of `jacobi_monic`, read off
    their coefficients: x g_k = g_{k+1} + alpha_k g_k + beta_k g_{k-1} gives
    alpha_k = [x^(k-1)] g_k - [x^k] g_{k+1}; the squared norm in the
    probability law pi is h_k = <g_k, x^k> over the Beta moments, divided by
    the total mass, and beta_k = h_k / h_{k-1} (betas[0] = 0)."""
    monic = jacobi_monic(a, b, dmax)
    moments = [beta_moment(a, b, k) for k in range(2 * dmax + 1)]
    norms = [sum(c * moments[j + d] for j, c in enumerate(g)) / moments[0]
             for d, g in enumerate(monic)]
    alphas = [(g[-2] if d else 0) - nxt[-2] for d, (g, nxt) in enumerate(zip(monic, monic[1:]))]
    betas = [Fraction(0)] + [norms[k] / norms[k - 1] for k in range(1, dmax + 1)]
    return alphas, betas, norms


def _hahn_parameters(spec) -> tuple:
    """(alpha, beta) of the Hahn polynomials of a gamma(a, b) or delta(a', b')
    walk: alpha = a+b+1 and beta = a, with a = -a' and b = -b' for delta."""
    if isinstance(spec, GammaAB):
        a, b = Fraction(spec.a), Fraction(spec.b)
    else:
        a, b = -Fraction(spec.a_prime), -Fraction(spec.b_prime)
    return a + b + 1, a


def rising(r, k: int):
    """The Pochhammer symbol (r)_k = r (r+1) ... (r+k-1)."""
    return math.prod((r + j for j in range(k)), start=Fraction(1))


def closed_form_right_eigenvectors(spec, n: int) -> list:
    """Right eigenvectors v_0, ..., v_(n-1) of a named family walk, each
    scaled to v_d(0) = 1, by the hypergeometric closed forms (N = n-1):

        gamma(a, b), delta(a', b'):  v_d(x) = 3F2(-d, d+2a+b+2, -x; a+b+2, -N; 1),
        gamma(c):                    v_d(x) = 2F1(-d, -x; -N; 1+q),  q = 1/(c+1).

    These are the Hahn polynomials Q_d(x; a+b+1, a, N), with a = -a' and
    b = -b' for delta, and the Krawtchouk polynomials K_d(x; p, N) with
    1/p = 1+q (Koekoek, Lesky and Swarttouw 2010, sections 9.5 and 9.11).
    Each is a terminating sum over k <= min(d, x) of c_(d,k) (-x)_k."""
    big_n = n - 1
    if isinstance(spec, GammaC):
        z = 1 + 1 / (Fraction(spec.c) + 1)
    else:
        alpha, beta = _hahn_parameters(spec)
        z = Fraction(1)
    # (-x)_k, k <= x, as integers
    falling = [list(accumulate(range(-x, 0), mul, initial=1)) for x in range(n)]
    vectors = []
    for d in range(n):
        # the parameters besides -d, -x and -N: none for the 2F1
        upper, lower = ([], []) if isinstance(spec, GammaC) else ([d + alpha + beta + 1], [alpha + 1])
        # c_(d,k+1) / c_(d,k) = (k-d) prod(u+k) z / ((k-N) prod(w+k) (k+1))
        coeffs = [Fraction(1)]
        for k in range(d):
            ratio = (k - d) * z * math.prod(u + k for u in upper)
            coeffs.append(coeffs[-1] * ratio / ((k - big_n) * math.prod(w + k for w in lower) * (k + 1)))
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        # zip stops at k = min(d, x)
        vectors.append([Fraction(sum(map(mul, nums, row)), den) for row in falling])
    return vectors


def closed_form_pi_norms(spec, n: int) -> list:
    """h_d = sum_x pi_x v_d(x)^2 for the vectors of
    `closed_form_right_eigenvectors`, pi the stationary law (N = n-1).

    Krawtchouk: h_d = q^d / C(N, d), the norm ((1-p)/p)^d / C(N, d) of the
    binomial law.  Hahn, with the weight C(alpha+x, x) C(beta+N-x, N-x) of
    pi: the norm (-1)^d (d+alpha+beta+1)_(N+1) (beta+1)_d d! /
    ((2d+alpha+beta+1) (alpha+1)_d (-N)_d N!) over its value at d = 0.
    The factor (d+alpha+beta+1+d) of the rising product cancels the
    denominator 2d+alpha+beta+1, which may vanish for delta, so it is left out."""
    big_n = n - 1
    if isinstance(spec, GammaC):
        q = 1 / (Fraction(spec.c) + 1)
        return [q**d / math.comb(big_n, d) for d in range(n)]
    alpha, beta = _hahn_parameters(spec)

    def norm(d: int) -> Fraction:
        product = math.prod((d + alpha + beta + 1 + j for j in range(big_n + 1) if j != d),
                            start=Fraction(1))
        return ((-1) ** d * product * rising(beta + 1, d) * math.factorial(d)
                / (rising(alpha + 1, d) * rising(-big_n, d)))

    h0 = norm(0)
    return [norm(d) / h0 for d in range(n)]
