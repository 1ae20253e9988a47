"""Floating-point involutive walks on the interval [0, 1].

Two real weights are supported: the polynomial kernel kappa(a, b) with
weight y^a (x-y)^b on [0, x] (integer a, b >= 0), and the trigonometric
walk with atomic weight sin(pi y) and constant star-symmetric part.  The
step operator acting on observables is

    (L_P f)(x) = integral over z in [1-x, 1] of  w[1-z, x]/N_x * f(z) dz,

a compact self-adjoint operator on the Hilbert space weighted by the
invariant density.  Its eigenfunctions are shifted-Jacobi-type orthogonal
polynomials for kappa (eigenvalues (-1)^d binom(a+d,d)/binom(a+b+d+1,d))
and a cosine ladder for the trigonometric walk (eigenvalues (-1)^d/(d+1)).

Both step operators map polynomials of degree <= D to themselves: kappa's
in x, the trigonometric walk's in c = cos(pi x).  On the power basis each
is an upper-triangular matrix over Q (`lp_triangular`, `trig_triangular`)
whose diagonal holds the eigenvalues, so the eigenfunctions are its exact
eigenvectors, found by the integer back-substitution that also gives the
discrete eigenvectors (`_linalg.triangular_eigenvectors`); the
trigonometric ones are then converted exactly to Chebyshev coefficients.
The construction is exact and only the final normalization is a float,
which keeps orthogonality stable up to degree ~12.

The eigen residuals and the fixed-point check integrate polynomials (in u
for kappa, in c for the trigonometric walk), so one Gauss-Legendre panel
of order floor(degree/2)+1 is exact for each; that panel runs over the
whole evaluation grid at once with numpy.  `lp_apply` and `lh_apply`
take arbitrary observables and go through adaptive Gauss-Legendre
quadrature with interval bisection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.legendre import leggauss

from . import _linalg as la
from .errors import OutOfRange, QuadratureNonConvergence
from .spectral import eigenvalues_closed_form, family_lambda, right_eigenvectors
from .weights import GammaAB

GRID_POINTS = 101  # evaluation grid k/101, k = 1..101; x = 0 stays excluded


QUAD_TOLERANCE = 1e-10  # absolute tolerance of lp_apply and lh_apply
QUAD_NODE_BUDGET = 2**15  # integrand evaluations before QuadratureNonConvergence
QUAD_PANEL_ORDER = 20


@dataclass(frozen=True)
class ContinuousWalk:
    kind: str  # "kappa" or "trig"
    a: int = 0
    b: int = 0

    def __post_init__(self):
        if self.kind not in ("kappa", "trig"):
            raise OutOfRange(f"unknown continuous walk kind {self.kind!r}")
        if self.kind == "kappa" and (self.a < 0 or self.b < 0):
            raise OutOfRange("kappa(a, b) needs integers a, b >= 0")


def kappa_walk(a: int, b: int) -> ContinuousWalk:
    return ContinuousWalk("kappa", a, b)


def trig_walk() -> ContinuousWalk:
    return ContinuousWalk("trig")


@functools.cache
def _gl(order: int):
    nodes, weights = leggauss(order)
    return list(map(float, nodes)), list(map(float, weights))


def adaptive_quad(f, lo: float, hi: float, tol: float) -> float:
    """Gauss-Legendre panels of order QUAD_PANEL_ORDER refined by bisection
    until the panel estimate stabilizes within tol; raises
    QuadratureNonConvergence after QUAD_NODE_BUDGET integrand evaluations."""
    if lo == hi:
        return 0.0
    nodes, weights = _gl(QUAD_PANEL_ORDER)
    used = 0

    def panel(a: float, b: float) -> float:
        nonlocal used
        used += QUAD_PANEL_ORDER
        if used > QUAD_NODE_BUDGET:
            raise QuadratureNonConvergence(
                f"node budget {QUAD_NODE_BUDGET} exhausted on [{lo}, {hi}]"
            )
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * math.fsum(w * f(mid + half * t) for t, w in zip(nodes, weights))

    def refine(a: float, b: float, whole: float, tol: float) -> float:
        mid = 0.5 * (a + b)
        left, right = panel(a, mid), panel(mid, b)
        if abs(left + right - whole) <= tol:
            return left + right
        return refine(a, mid, left, 0.5 * tol) + refine(mid, b, right, 0.5 * tol)

    return refine(lo, hi, panel(lo, hi), tol)


@dataclass(frozen=True)
class PolyFunction:
    """Finite expansion in monomials x^k or cosines cos(k pi x).

    Monomial expansions come from `jacobi_eigenfunctions` and carry their
    three-term recurrence, which evaluates them: beyond degree ~8 the
    monomial coefficients grow so large that Horner evaluation would lose
    1e-9 of accuracy to cancellation, while the recurrence stays at machine
    precision and also evaluates elementwise on numpy arrays.
    """

    coefficients: tuple
    basis: str = "monomial"
    recurrence: tuple | None = None  # (alphas, betas, scale) for monic p_d; monomial only

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        if self.basis != "monomial":
            return math.fsum(
                c * math.cos(k * math.pi * x) for k, c in enumerate(self.coefficients)
            )
        alphas, betas, scale = self.recurrence
        prev, cur = 0.0, 1.0
        for k in range(self.degree):
            prev, cur = cur, (x - alphas[k]) * cur - (betas[k] * prev if k else 0.0)
        return scale * cur


def _as_callable(f):
    return f if callable(f) else (lambda x: float(f))


def kappa_norm(a: int, b: int, x: float) -> float:
    """N(kappa)_x = x^(a+b+1) / ((a+b+1) binom(a+b, b))."""
    return x ** (a + b + 1) / ((a + b + 1) * math.comb(a + b, b))


def walk_eigenvalue(walk: ContinuousWalk, d: int) -> float:
    """Signed eigenvalue of L_P for eigenfunction index d."""
    if walk.kind == "kappa":
        return (-1) ** d * float(family_lambda(GammaAB(walk.a, walk.b), d))
    return (-1) ** d / (d + 1)


def lp_apply(walk: ContinuousWalk, f, x: float) -> float:
    """Quadrature evaluation of (L_P f)(x); undefined at x = 0."""
    if not 0 < x <= 1:
        raise OutOfRange(f"L_P is defined for 0 < x <= 1, got {x}")
    g = _as_callable(f)
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        const = (a + b + 1) * math.comb(a + b, a)
        # substitute z = 1 - x + x u to keep the integrand O(1) near x = 0
        integrand = lambda u: (1 - u) ** a * u**b * g(1 - x + x * u)
        return const * adaptive_quad(integrand, 0.0, 1.0, QUAD_TOLERANCE)
    denom = 1 - math.cos(math.pi * x)
    integrand = lambda z: math.sin(math.pi * z) * g(z)
    value = adaptive_quad(integrand, 1 - x, 1.0, QUAD_TOLERANCE * denom / math.pi)
    return math.pi * value / denom


def lh_apply(walk: ContinuousWalk, f, x: float) -> float:
    """Down-step operator; L_H f equals L_P applied to the reflection of f."""
    if not 0 < x <= 1:
        raise OutOfRange(f"L_H is defined for 0 < x <= 1, got {x}")
    g = _as_callable(f)
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        const = (a + b + 1) * math.comb(a + b, a)
        integrand = lambda w: w**a * (1 - w) ** b * g(x * w)
        return const * adaptive_quad(integrand, 0.0, 1.0, QUAD_TOLERANCE)
    return lp_apply(walk, lambda z: g(1 - z), x)


def _beta_moment(a: int, b: int, k: int) -> Fraction:
    """Exact integral of (1-x)^a x^(a+b+1+k) over [0, 1]."""
    p = a + b + k + 1
    return Fraction(math.factorial(p) * math.factorial(a), math.factorial(p + a + 1))


def _check_dmax(dmax: int) -> None:
    if not 0 <= dmax <= 12:
        raise OutOfRange(f"eigenfunction construction supported for 0 <= dmax <= 12, got {dmax}")


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
    sigma = eigenvalues_closed_form(GammaAB(a, b), dmax + 1)
    return [[math.comb(k, i) * s for k in range(dmax + 1)] for i, s in enumerate(sigma)]


def _monic(t: list) -> list:
    """Monic eigenvectors of the rational upper-triangular matrix t, scaled
    to integers.  For the self-adjoint L_P they are orthogonal under the
    invariant density: the monic orthogonal polynomials of that weight."""
    return [[Fraction(x, v[-1]) for x in v]
            for v in la.triangular_eigenvectors(la.integer_matrix(t)[0])]


def jacobi_monic(a: int, b: int, dmax: int) -> list:
    """Monic eigenfunctions g_0, ..., g_dmax of kappa(a, b), exact over Q.

    g_d is the monomial coefficient list of the eigenvector of
    `lp_triangular` for its diagonal entry d.  The diagonal entries are
    distinct (their absolute values fall by the factor (a+d+1)/(a+b+d+2) < 1
    at each step), so back-substitution determines it.
    """
    return _monic(lp_triangular(a, b, dmax))


def jacobi_eigenfunctions(a: int, b: int, dmax: int) -> list:
    """Orthonormal polynomials for the weight (1-x)^a x^(a+b+1) on [0, 1].

    These are shifted Jacobi polynomials with parameters (a, a+b+1), the
    normalized `jacobi_monic`.  Each output carries its exact three-term
    recurrence x g_k = g_{k+1} + alpha_k g_k + beta_k g_{k-1} for stable
    evaluation: alpha_k = [x^(k-1)] g_k - [x^k] g_{k+1} by comparing
    coefficients, and beta_k = h_k / h_{k-1}, where the squared norm
    h_k = <g_k, x^k> is a sum of exact rational Beta moments.
    """
    _check_dmax(dmax)
    monic = jacobi_monic(a, b, dmax)
    moments = [_beta_moment(a, b, k) for k in range(2 * dmax + 1)]
    norms = [sum(c * moments[j + d] for j, c in enumerate(g)) for d, g in enumerate(monic)]
    alphas = [float((g[-2] if d else 0) - nxt[-2])
              for d, (g, nxt) in enumerate(zip(monic, monic[1:]))]
    betas = [0.0] + [float(norms[k] / norms[k - 1]) for k in range(1, dmax + 1)]
    out = []
    for d, (vec, h) in enumerate(zip(monic, norms)):
        scale = 1.0 / math.sqrt(float(h))
        coeffs = tuple(float(c) * scale for c in vec)
        rec = (tuple(alphas[:d]), tuple(betas[:d]), scale)
        out.append(PolyFunction(coeffs, "monomial", rec))
    return out


def trig_triangular(dmax: int) -> list:
    """L_P of the trigonometric walk on powers of c = cos(pi x), exact over Q.

    With c = cos(pi z), sin(pi z) dz / N_x is the uniform law on
    [-1, -cos(pi x)], so (L_P f)(x) is the mean of f over that interval:

        L_P c^k = (-1)^k / (k+1) * sum_{i<=k} c^i,   c = cos(pi x).

    Entry [i][k] is the coefficient of c^i in L_P c^k.  The matrix is upper
    triangular and its diagonal holds the eigenvalues (-1)^k/(k+1).
    """
    return [[Fraction((-1) ** k, k + 1) if i <= k else Fraction(0) for k in range(dmax + 1)]
            for i in range(dmax + 1)]


def trig_monic(dmax: int) -> list:
    """Monic eigenfunctions g_0, ..., g_dmax of the trigonometric walk in
    powers of c = cos(pi x), exact over Q: the eigenvectors of
    `trig_triangular`, whose diagonal entries are distinct."""
    return _monic(trig_triangular(dmax))


def _chebyshev(p: list) -> list:
    """Exact Chebyshev coefficients of the power series p in c.

    c^k = 2^-k sum_m C(k, m) T_|k-2m|(c), and T_j(cos(pi x)) = cos(j pi x).
    """
    out = [Fraction(0)] * len(p)
    for k, coeff in enumerate(p):
        for m in range(k + 1):
            out[abs(k - 2 * m)] += coeff * Fraction(math.comb(k, m), 2**k)
    return out


def trig_eigenfunctions(dmax: int) -> list:
    """Orthonormal cosine-ladder eigenfunctions of the trigonometric walk.

    Each `trig_monic` g_d becomes its exact Chebyshev expansion, scaled to
    leading coefficient 1 in cos(d pi x).  The invariant law in c is
    (1-c)/2 dc on [-1, 1], with moments mu_m = 1/(m+1) for even m and
    -1/(m+2) for odd m.  g_d is orthogonal to lower powers of c, so its
    squared norm is <g_d, c^d>, a sum of exact moments.
    """
    _check_dmax(dmax)
    moments = [Fraction(1, m + 1) if m % 2 == 0 else Fraction(-1, m + 2)
               for m in range(2 * dmax + 1)]
    out = []
    for d, g in enumerate(trig_monic(dmax)):
        cheb = _chebyshev(g)
        lead = cheb[-1]
        h = sum(c * moments[j + d] for j, c in enumerate(g)) / lead**2
        scale = 1.0 / math.sqrt(float(h))
        out.append(PolyFunction(tuple(float(c / lead) * scale for c in cheb), "cosine"))
    return out


def eigenfunctions(walk: ContinuousWalk, dmax: int) -> list:
    if walk.kind == "kappa":
        return jacobi_eigenfunctions(walk.a, walk.b, dmax)
    return trig_eigenfunctions(dmax)


def _grid():
    return [k / GRID_POINTS for k in range(1, GRID_POINTS + 1)]


def _unit_panel(degree: int):
    """Gauss-Legendre nodes on [0, 1] and weights summing to 1, of order
    floor(degree/2)+1: exact up to rounding for polynomials of that degree."""
    nodes, weights = _gl(degree // 2 + 1)
    return 0.5 * (np.asarray(nodes) + 1.0), 0.5 * np.asarray(weights)


def _kappa_lp_panel(a: int, b: int, g, degree: int, xs) -> np.ndarray:
    """(L_P g)(x) for kappa(a, b) at every x of the array xs.

    g is a polynomial of the given degree that evaluates on numpy arrays.
    After z = 1 - x + x u the integrand (1-u)^a u^b g(z) is a polynomial of
    degree a+b+degree in u, so one Gauss-Legendre panel on [0, 1]
    integrates it exactly up to rounding.
    """
    u, w = _unit_panel(a + b + degree)
    kernel = w * (1 - u) ** a * u**b
    x = np.asarray(xs, dtype=float)[:, None]
    values = np.broadcast_to(g(1 - x + x * u), (x.shape[0], u.size))
    return (a + b + 1) * math.comb(a + b, a) * (values @ kernel)


def _trig_lp_panel(g, xs) -> np.ndarray:
    """(L_P g)(x) for the trigonometric walk at every x of the array xs.

    g is a cosine expansion: g(z) = G(cos(pi z)) with G = sum_k g_k T_k.
    (L_P g)(x) is the mean of G over [-1, -cos(pi x)] (see
    `trig_triangular`), and G is a polynomial of degree deg g, so one
    Gauss-Legendre panel gives it exactly up to rounding.
    """
    u, w = _unit_panel(g.degree)
    length = 1 - np.cos(np.pi * np.asarray(xs, dtype=float))
    return chebval(-1 + length[:, None] * u, g.coefficients) @ w


def _residual(walk: ContinuousWalk, g, d: int) -> float:
    xs = np.array(_grid())
    if walk.kind == "kappa":
        lp, values = _kappa_lp_panel(walk.a, walk.b, g, d, xs), g(xs)
    else:
        lp = _trig_lp_panel(g, xs)
        # g itself straight from its cosine terms, not through c = cos(pi x)
        values = np.cos(np.pi * np.outer(xs, np.arange(d + 1))) @ np.asarray(g.coefficients)
    return float(np.max(np.abs(lp - walk_eigenvalue(walk, d) * values)))


def eigen_residuals(walk: ContinuousWalk, dmax: int) -> list:
    """max over the grid of |L_P g_d(x) - eigenvalue * g_d(x)|, for d = 0..dmax.

    The eigenfunctions are built once.  L_P g_d comes from one exact
    Gauss-Legendre panel evaluated over the whole grid at once: in the
    variable u of `lp_apply` for kappa, in c = cos(pi z) for the
    trigonometric walk.  Either way it is an independent check of the
    eigenfunction against the integral definition of L_P.
    """
    return [_residual(walk, g, d) for d, g in enumerate(eigenfunctions(walk, dmax))]


def eigen_residual(walk: ContinuousWalk, d: int) -> float:
    """The residual of `eigen_residuals` for the single index d."""
    return _residual(walk, eigenfunctions(walk, d)[d], d)


def _kappa_density(a: int, b: int, x):
    """Invariant density of kappa(a, b); x may be a numpy array."""
    c = (2 * a + b + 2) * math.comb(2 * a + b + 1, a)
    return c * (1 - x) ** a * x ** (a + b + 1)


def cts_invariant(walk: ContinuousWalk, x: float) -> float:
    """Normalized invariant density at x."""
    if not 0 <= x <= 1:
        raise OutOfRange(f"x={x} outside [0, 1]")
    if walk.kind == "kappa":
        return _kappa_density(walk.a, walk.b, x)
    return (math.pi / 2) * math.sin(math.pi * x) * (1 - math.cos(math.pi * x))


def _rp_invariant(walk: ContinuousWalk, z):
    """(R_P pi)(z): the density at z after one step from the invariant law.

    z is a float or an array.  One Gauss-Legendre panel gives the integral
    exactly up to rounding.  For kappa the integrand over x in [1-z, 1],
    w[1-z, x]/N_x * pi(x), is a polynomial of degree a+b in x, since N_x
    cancels the factor x^(a+b+1) of pi.  For the trigonometric walk,
    c = cos(pi x) turns pi(x) dx into (1-c)/2 dc and the step density into
    pi sin(pi z)/(1-c), so the integrand over c in [-1, -cos(pi z)] has
    degree 0.
    """
    z = np.asarray(z, dtype=float)[..., None]
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        u, w = _unit_panel(a + b)
        length, x = z, 1 - z + z * u
        values = (1 - z) ** a * (x + z - 1) ** b / kappa_norm(a, b, x) * _kappa_density(a, b, x)
    else:
        u, w = _unit_panel(0)
        length = 1 - np.cos(np.pi * z)
        c = -1 + length * u
        step = np.pi * np.sin(np.pi * (1 - z)) / (1 - c)
        values = step * (1 - c) / 2
    return (length * values) @ w


def fixed_point_residual(walk: ContinuousWalk) -> float:
    """max-grid residual of the stationarity equation (R_P pi)(z) = pi(z)."""
    grid = _grid()
    pi = np.array([cts_invariant(walk, z) for z in grid])
    return float(np.max(np.abs(_rp_invariant(walk, grid) - pi)))


CONVERGENCE_MAX_N = 400  # input budget; the eigensystem costs ~2x per doubling of n
CONVERGENCE_MAX_SIZES = 8


def discrete_convergence(a: int, b: int, d: int, n_list) -> list:
    """Sup-distance between the rescaled discrete eigenvector and g_d.

    For each n the exact right eigenvector of the n-state gamma(a, b) walk
    is read as a function of x = i/n (entry i sits at n*x = i, matching the
    limit statement; the x/(n-1) alternative collapses the d = 1 comparison
    to exactly zero because both sides are affine with the same root).
    Both vectors are scaled to sup-norm 1 over the grid with matching sign
    at the left endpoint, and the sup-distance over the n points returns.
    Supported: 0 <= d <= 5, d < n <= CONVERGENCE_MAX_N, and at most
    CONVERGENCE_MAX_SIZES sizes.
    """
    return convergence_table(a, b, [d], n_list)[0]


def convergence_table(a: int, b: int, degrees, n_list) -> list:
    """`discrete_convergence` for each d of degrees: one row of distances
    per d.  Each n's exact eigensystem is built once, up to max(degrees)."""
    if a < 0 or b < 0:
        raise OutOfRange("discrete comparison needs integers a, b >= 0")
    for d in degrees:
        if not 0 <= d <= 5:
            raise OutOfRange(f"discrete comparison supported for 0 <= d <= 5, got d={d}")
    if len(n_list) > CONVERGENCE_MAX_SIZES:
        raise OutOfRange(f"at most {CONVERGENCE_MAX_SIZES} sizes, got {len(n_list)}")
    top = max(degrees)
    for n in n_list:
        if n <= top:
            raise OutOfRange(f"the n-state walk has eigenvectors d < n; need n > {top}, got n={n}")
        if n > CONVERGENCE_MAX_N:
            raise OutOfRange(f"discrete comparison supported for n <= {CONVERGENCE_MAX_N}, got n={n}")
    gs = jacobi_eigenfunctions(a, b, top)
    spec = GammaAB(Fraction(a), Fraction(b))
    table = [[] for _ in degrees]
    for n in n_list:
        system = right_eigenvectors(spec, n, dmax=top)
        for d, row in zip(degrees, table):
            w = [float(v) for v in system.right_vectors[d]]
            gvals = [gs[d](i / n) for i in range(n)]
            w_hat = _sup_normalize(w)
            g_hat = _sup_normalize(gvals)
            if _leading_sign(w_hat) != _leading_sign(g_hat):
                w_hat = [-v for v in w_hat]
            row.append(max(abs(p - q) for p, q in zip(w_hat, g_hat)))
    return table


def _sup_normalize(values: list) -> list:
    peak = max(abs(v) for v in values)
    return [v / peak for v in values]


def _leading_sign(values: list) -> int:
    for v in values:
        if abs(v) > 1e-9:
            return 1 if v > 0 else -1
    return 0
