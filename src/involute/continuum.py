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

For kappa(a, b), L_P maps polynomials of degree <= D to themselves; on the
monomial basis it is an upper-triangular matrix over Q (`lp_triangular`)
whose diagonal holds the eigenvalues, so the eigenfunctions are its exact
eigenvectors, found by back-substitution.  The trigonometric eigenfunctions
come from exact Gram-Schmidt over closed-form sine integrals.  Either way
the construction is exact and only the final normalization is a float,
which keeps orthogonality stable up to degree ~12.

The kappa eigen residuals integrate a polynomial of degree a+b+d, so one
Gauss-Legendre panel of order floor((a+b+d)/2)+1 is exact for it; that
panel runs over the whole evaluation grid at once with numpy.  Every other
integral (the trigonometric walk, `lp_apply`, `lh_apply` and the
fixed-point check) goes through adaptive Gauss-Legendre quadrature with
interval bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import OutOfRange, QuadratureNonConvergence
from .spectral import family_lambda, right_eigenvectors
from .weights import GammaAB

GRID_POINTS = 101  # evaluation grid k/101, k = 1..101; x = 0 stays excluded


@dataclass(frozen=True)
class QuadratureConfig:
    tolerance: float = 1e-10
    node_budget: int = 2**15
    panel_order: int = 20


@dataclass(frozen=True)
class ContinuousWalk:
    kind: str  # "kappa" or "trig"
    a: int = 0
    b: int = 0
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.kind not in ("kappa", "trig"):
            raise OutOfRange(f"unknown continuous walk kind {self.kind!r}")
        if self.kind == "kappa" and (self.a < 0 or self.b < 0):
            raise OutOfRange("kappa(a, b) needs integers a, b >= 0")


def kappa_walk(a: int, b: int, **quad) -> ContinuousWalk:
    return ContinuousWalk("kappa", a, b, QuadratureConfig(**quad))


def trig_walk(**quad) -> ContinuousWalk:
    return ContinuousWalk("trig", quadrature=QuadratureConfig(**quad))


_GL_CACHE: dict = {}


def _gl(order: int):
    if order not in _GL_CACHE:
        nodes, weights = leggauss(order)
        _GL_CACHE[order] = (list(map(float, nodes)), list(map(float, weights)))
    return _GL_CACHE[order]


def adaptive_quad(f, lo: float, hi: float, tol: float, config: QuadratureConfig) -> float:
    """Gauss-Legendre panels refined by bisection until the panel estimate
    stabilizes within tol; raises QuadratureNonConvergence on budget."""
    if lo == hi:
        return 0.0
    nodes, weights = _gl(config.panel_order)
    used = 0

    def panel(a: float, b: float) -> float:
        nonlocal used
        used += config.panel_order
        if used > config.node_budget:
            raise QuadratureNonConvergence(
                f"node budget {config.node_budget} exhausted on [{lo}, {hi}]"
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

    Orthogonal polynomials built by the eigenfunction pipeline also carry
    their three-term recurrence; beyond degree ~8 the monomial coefficients
    grow so large that Horner evaluation loses 1e-9 of accuracy to
    cancellation, while the recurrence stays at machine precision.  The
    monomial basis also evaluates elementwise on numpy arrays.
    """

    coefficients: tuple
    basis: str = "monomial"
    recurrence: tuple | None = None  # (alphas, betas, scale) for monic p_d

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        if self.basis != "monomial":
            return math.fsum(
                c * math.cos(k * math.pi * x) for k, c in enumerate(self.coefficients)
            )
        if self.recurrence is not None:
            alphas, betas, scale = self.recurrence
            d = self.degree
            prev, cur = 0.0, 1.0
            for k in range(d):
                prev, cur = cur, (x - alphas[k]) * cur - (betas[k] * prev if k else 0.0)
            return scale * cur
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


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
    cfg = walk.quadrature
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        const = (a + b + 1) * math.comb(a + b, a)
        # substitute z = 1 - x + x u to keep the integrand O(1) near x = 0
        integrand = lambda u: (1 - u) ** a * u**b * g(1 - x + x * u)
        return const * adaptive_quad(integrand, 0.0, 1.0, cfg.tolerance, cfg)
    denom = 1 - math.cos(math.pi * x)
    integrand = lambda z: math.sin(math.pi * z) * g(z)
    value = adaptive_quad(integrand, 1 - x, 1.0, cfg.tolerance * denom / math.pi, cfg)
    return math.pi * value / denom


def lh_apply(walk: ContinuousWalk, f, x: float) -> float:
    """Down-step operator; L_H f equals L_P applied to the reflection of f."""
    if not 0 < x <= 1:
        raise OutOfRange(f"L_H is defined for 0 < x <= 1, got {x}")
    g = _as_callable(f)
    cfg = walk.quadrature
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        const = (a + b + 1) * math.comb(a + b, a)
        integrand = lambda w: w**a * (1 - w) ** b * g(x * w)
        return const * adaptive_quad(integrand, 0.0, 1.0, cfg.tolerance, cfg)
    return lp_apply(walk, lambda z: g(1 - z), x)


def _beta_moment(a: int, b: int, k: int) -> Fraction:
    """Exact integral of (1-x)^a x^(a+b+1+k) over [0, 1]."""
    p = a + b + k + 1
    return Fraction(math.factorial(p) * math.factorial(a), math.factorial(p + a + 1))


def _monic_gram_schmidt(gram_inner, dim: int) -> tuple[list, list]:
    """Monic exact GS in coefficient space: the vectors and their squared norms."""
    monic: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for d in range(dim):
        vec = [Fraction(0)] * (d + 1)
        vec[d] = Fraction(1)
        for e in range(d):
            prev = monic[e] + [Fraction(0)] * (d + 1 - len(monic[e]))
            coeff = gram_inner(vec, prev) / norms[e]
            vec = [vi - coeff * pi for vi, pi in zip(vec, prev)]
        monic.append(vec)
        norms.append(gram_inner(vec, vec))
    return monic, norms


def _check_dmax(dmax: int) -> None:
    if not 0 <= dmax <= 12:
        raise OutOfRange(f"eigenfunction construction supported for 0 <= dmax <= 12, got {dmax}")


def lp_triangular(a: int, b: int, dmax: int) -> list:
    """L_P of kappa(a, b) on polynomials of degree <= dmax, exact over Q.

    Entry [i][k] is the coefficient of x^i in L_P x^k.  Substituting
    z = 1 - x + x u and integrating u^j against the Beta(a+1, b+1) weight,

        L_P x^k = sum_j C(k,j) r_j (1-x)^(k-j) x^j,   r_j = (b+1)_j / (a+b+2)_j.

    Expanding (1-x)^(k-j) and using C(k,j) C(k-j,i-j) = C(k,i) C(i,j), the
    entry is C(k,i) s_i with the alternating sum
    s_i = sum_j (-1)^(i-j) C(i,j) r_j.  So the matrix is upper triangular,
    and its diagonal s_0, ..., s_dmax holds the signed eigenvalues.
    """
    r = [Fraction(1)]
    for j in range(dmax):
        r.append(r[-1] * Fraction(b + 1 + j, a + b + 2 + j))
    s = [
        sum((-1) ** (i - j) * math.comb(i, j) * r[j] for j in range(i + 1))
        for i in range(dmax + 1)
    ]
    return [[math.comb(k, i) * s[i] for k in range(dmax + 1)] for i in range(dmax + 1)]


def jacobi_monic(a: int, b: int, dmax: int) -> list:
    """Monic eigenfunctions g_0, ..., g_dmax of kappa(a, b), exact over Q.

    g_d is the monomial coefficient list [c_0, ..., c_d = 1] of the
    eigenvector of `lp_triangular` for its diagonal entry d.  The diagonal
    entries are distinct (their absolute values fall by the factor
    (a+d+1)/(a+b+d+2) < 1 at each step), so back-substitution determines it:

        c_i = sum_{i<k<=d} T[i][k] c_k / (T[d][d] - T[i][i]).

    Eigenvectors of the self-adjoint L_P for distinct eigenvalues are
    orthogonal under the invariant density, so these are the monic
    orthogonal polynomials of that weight.
    """
    t = lp_triangular(a, b, dmax)
    monic = []
    for d in range(dmax + 1):
        c = [Fraction(0)] * d + [Fraction(1)]
        for i in range(d - 1, -1, -1):
            c[i] = sum(t[i][k] * c[k] for k in range(i + 1, d + 1)) / (t[d][d] - t[i][i])
        monic.append(c)
    return monic


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


def _sine_integral_times_pi(m: int) -> Fraction:
    # pi * integral of sin(m pi x) over [0, 1]
    if m == 0:
        return Fraction(0)
    if m % 2 == 0:
        return Fraction(0)
    return Fraction(2 * (1 if m > 0 else -1), abs(m))


def _trig_moment(j: int, k: int) -> Fraction:
    """Exact integral of pi_x cos(j pi x) cos(k pi x) for the trig walk."""

    def t(q: int) -> Fraction:
        return (
            Fraction(1, 4) * (_sine_integral_times_pi(1 + q) + _sine_integral_times_pi(1 - q))
            - Fraction(1, 8) * (_sine_integral_times_pi(2 + q) + _sine_integral_times_pi(2 - q))
        )

    return Fraction(1, 2) * (t(j + k) + t(abs(j - k)))


def trig_eigenfunctions(dmax: int) -> list:
    """Orthonormal cosine-ladder eigenfunctions of the trigonometric walk."""
    _check_dmax(dmax)
    cache: dict[tuple[int, int], Fraction] = {}

    def inner(p, q):
        total = Fraction(0)
        for j, pj in enumerate(p):
            if pj == 0:
                continue
            for k, qk in enumerate(q):
                if qk == 0:
                    continue
                key = (min(j, k), max(j, k))
                if key not in cache:
                    cache[key] = _trig_moment(j, k)
                total += pj * qk * cache[key]
        return total

    out = []
    for vec, h in zip(*_monic_gram_schmidt(inner, dmax + 1)):
        scale = 1.0 / math.sqrt(float(h))
        out.append(PolyFunction(tuple(float(c) * scale for c in vec), "cosine"))
    return out


def eigenfunctions(walk: ContinuousWalk, dmax: int) -> list:
    if walk.kind == "kappa":
        return jacobi_eigenfunctions(walk.a, walk.b, dmax)
    return trig_eigenfunctions(dmax)


def _grid():
    return [k / GRID_POINTS for k in range(1, GRID_POINTS + 1)]


def _kappa_lp_panel(a: int, b: int, g, degree: int, xs) -> np.ndarray:
    """(L_P g)(x) for kappa(a, b) at every x of the array xs.

    g is a polynomial of the given degree that evaluates on numpy arrays.
    After z = 1 - x + x u the integrand (1-u)^a u^b g(z) is a polynomial of
    degree a+b+degree in u, so one Gauss-Legendre panel of order
    floor((a+b+degree)/2)+1 on [0, 1] integrates it exactly up to rounding.
    """
    nodes, weights = _gl((a + b + degree) // 2 + 1)
    u = 0.5 * (np.asarray(nodes) + 1.0)
    kernel = 0.5 * np.asarray(weights) * (1 - u) ** a * u**b
    x = np.asarray(xs, dtype=float)[:, None]
    values = np.broadcast_to(g(1 - x + x * u), (x.shape[0], u.size))
    return (a + b + 1) * math.comb(a + b, a) * (values @ kernel)


def _residual(walk: ContinuousWalk, g, d: int) -> float:
    lam = walk_eigenvalue(walk, d)
    if walk.kind == "kappa":
        xs = np.array(_grid())
        return float(np.max(np.abs(_kappa_lp_panel(walk.a, walk.b, g, d, xs) - lam * g(xs))))
    return max(abs(lp_apply(walk, g, x) - lam * g(x)) for x in _grid())


def eigen_residuals(walk: ContinuousWalk, dmax: int) -> list:
    """max over the grid of |L_P g_d(x) - eigenvalue * g_d(x)|, for d = 0..dmax.

    The eigenfunctions are built once.  For kappa, L_P g_d comes from one
    exact Gauss-Legendre panel evaluated over the whole grid at once; for
    the trigonometric walk, from adaptive quadrature at each grid point.
    Either way it is an independent check of the eigenfunction against the
    integral definition of L_P.
    """
    return [_residual(walk, g, d) for d, g in enumerate(eigenfunctions(walk, dmax))]


def eigen_residual(walk: ContinuousWalk, d: int) -> float:
    """The residual of `eigen_residuals` for the single index d."""
    return _residual(walk, eigenfunctions(walk, d)[d], d)


def cts_invariant(walk: ContinuousWalk, x: float) -> float:
    """Normalized invariant density at x."""
    if not 0 <= x <= 1:
        raise OutOfRange(f"x={x} outside [0, 1]")
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        c = (2 * a + b + 2) * math.comb(2 * a + b + 1, a)
        return c * (1 - x) ** a * x ** (a + b + 1)
    return (math.pi / 2) * math.sin(math.pi * x) * (1 - math.cos(math.pi * x))


def _rp_invariant(walk: ContinuousWalk, z: float) -> float:
    """(R_P pi)(z): the density at z after one step from the invariant law."""
    cfg = walk.quadrature
    if walk.kind == "kappa":
        a, b = walk.a, walk.b

        def integrand(x: float) -> float:
            return (1 - z) ** a * (x + z - 1) ** b / kappa_norm(a, b, x) * cts_invariant(walk, x)

    else:

        def integrand(x: float) -> float:
            n_x = (1 - math.cos(math.pi * x)) / math.pi
            return math.sin(math.pi * (1 - z)) / n_x * cts_invariant(walk, x)

    return adaptive_quad(integrand, 1 - z, 1.0, cfg.tolerance, cfg)


def fixed_point_residual(walk: ContinuousWalk) -> float:
    """max-grid residual of the stationarity equation (R_P pi)(z) = pi(z)."""
    return max(abs(_rp_invariant(walk, z) - cts_invariant(walk, z)) for z in _grid())


def discrete_convergence(a: int, b: int, d: int, n_list) -> list:
    """Sup-distance between the rescaled discrete eigenvector and g_d.

    For each n the exact right eigenvector of the n-state gamma(a, b) walk
    is read as a function of x = i/n (entry i sits at n*x = i, matching the
    limit statement; the x/(n-1) alternative collapses the d = 1 comparison
    to exactly zero because both sides are affine with the same root).
    Both vectors are scaled to sup-norm 1 over the grid with matching sign
    at the left endpoint, and the sup-distance over the n points returns.
    """
    if a < 0 or b < 0:
        raise OutOfRange("discrete comparison needs integers a, b >= 0")
    if not 0 <= d <= 5:
        raise OutOfRange(f"discrete comparison supported for 0 <= d <= 5, got d={d}")
    for n in n_list:
        if n <= d:
            raise OutOfRange(f"the n-state walk has eigenvectors d < n; need n > {d}, got n={n}")
    g = jacobi_eigenfunctions(a, b, d)[d]
    spec = GammaAB(Fraction(a), Fraction(b))
    out = []
    for n in n_list:
        system = right_eigenvectors(spec, n, dmax=d)
        w = [float(v) for v in system.right_vectors[d]]
        gvals = [g(i / n) for i in range(n)]
        w_hat = _sup_normalize(w)
        g_hat = _sup_normalize(gvals)
        if _leading_sign(w_hat) != _leading_sign(g_hat):
            w_hat = [-v for v in w_hat]
        out.append(max(abs(p - q) for p, q in zip(w_hat, g_hat)))
    return out


def _sup_normalize(values: list) -> list:
    peak = max(abs(v) for v in values)
    return [v / peak for v in values]


def _leading_sign(values: list) -> int:
    for v in values:
        if abs(v) > 1e-9:
            return 1 if v > 0 else -1
    return 0
