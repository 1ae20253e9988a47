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

Gram matrices for the eigenfunction constructions are computed as exact
rationals (Beta moments, respectively closed-form sine integrals) and only
converted to floats at the final normalization, which keeps orthogonality
stable up to degree ~12.  All integrals go through adaptive Gauss-Legendre
quadrature with interval bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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
    cancellation, while the recurrence stays at machine precision.
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


def jacobi_eigenfunctions(a: int, b: int, dmax: int) -> list:
    """Orthonormal polynomials for the weight (1-x)^a x^(a+b+1) on [0, 1].

    These are shifted Jacobi polynomials with parameters (a, a+b+1); their
    Gram matrix is assembled from exact rational Beta moments, and each
    output carries its exact three-term recurrence for stable evaluation.
    """
    if dmax > 12:
        raise OutOfRange("eigenfunction construction supported for dmax <= 12")
    moments = [_beta_moment(a, b, k) for k in range(2 * dmax + 2)]

    def inner(p, q):
        return sum(
            pj * qk * moments[j + k] for j, pj in enumerate(p) for k, qk in enumerate(q)
        )

    monic, norms = _monic_gram_schmidt(inner, dmax + 1)
    alphas = [float(inner([Fraction(0)] + p, p) / h) for p, h in zip(monic, norms)]
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
    if dmax > 12:
        raise OutOfRange("eigenfunction construction supported for dmax <= 12")
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


def eigen_residual(walk: ContinuousWalk, d: int) -> float:
    """max over the grid of |L_P g_d(x) - eigenvalue * g_d(x)|."""
    g = eigenfunctions(walk, d)[d]
    lam = walk_eigenvalue(walk, d)
    return max(abs(lp_apply(walk, g, x) - lam * g(x)) for x in _grid())


def cts_invariant(walk: ContinuousWalk, x: float) -> float:
    """Normalized invariant density at x."""
    if not 0 <= x <= 1:
        raise OutOfRange(f"x={x} outside [0, 1]")
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        c = (2 * a + b + 2) * math.comb(2 * a + b + 1, a)
        return c * (1 - x) ** a * x ** (a + b + 1)
    return (math.pi / 2) * math.sin(math.pi * x) * (1 - math.cos(math.pi * x))


def fixed_point_residual(walk: ContinuousWalk) -> float:
    """max-grid residual of the stationarity equation (R_P pi)(z) = pi(z)."""
    cfg = walk.quadrature
    if walk.kind == "kappa":
        a, b = walk.a, walk.b

        def r_applied(z: float) -> float:
            def integrand(x: float) -> float:
                return (1 - z) ** a * (x + z - 1) ** b / kappa_norm(a, b, x) * cts_invariant(walk, x)

            return adaptive_quad(integrand, 1 - z, 1.0, cfg.tolerance, cfg)

    else:

        def r_applied(z: float) -> float:
            def integrand(x: float) -> float:
                n_x = (1 - math.cos(math.pi * x)) / math.pi
                return math.sin(math.pi * (1 - z)) / n_x * cts_invariant(walk, x)

            return adaptive_quad(integrand, 1 - z, 1.0, cfg.tolerance, cfg)

    return max(abs(r_applied(z) - cts_invariant(walk, z)) for z in _grid())


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
    if d > 5:
        raise OutOfRange("discrete comparison supported for d <= 5")
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
