"""Floating-point involutive walks on the interval [0, 1].

Two real weights are supported: the polynomial kernel kappa(a, b) with
weight y^a (x-y)^b on [0, x] (integer a, b >= 0), and the trigonometric
walk with atomic weight sin(pi y) and constant star-symmetric part.  The
step operator acting on observables is

    (L_P f)(x) = integral over z in [1-x, 1] of  w[1-z, x]/N_x * f(z) dz,

a compact self-adjoint operator on L^2(pi), the Hilbert space weighted by
the invariant density pi.  For kappa its eigenfunctions are shifted-Jacobi
polynomials with eigenvalues (-1)^d binom(a+d,d)/binom(a+b+d+1,d).  Every
eigenfunction here is normalized in L^2(pi), which is a probability law,
so g_0 = 1.

The trigonometric walk is kappa(0, 0) in the coordinate

    phi(x) = (1 - cos(pi x))/2 = sin^2(pi x/2),   phi'(x) = (pi/2) sin(pi x):

  * phi(1 - y) = 1 - phi(y), so phi commutes with the involution y -> 1-y;
  * if y has density proportional to sin(pi y) on [0, x], its distribution
    function is (1 - cos(pi y))/(1 - cos(pi x)) = phi(y)/phi(x), so phi(y)
    is uniform on [0, phi(x)]: that is kappa(0, 0)'s step from phi(x);
  * so L_P^trig (g o phi) = (L_P^kappa(0,0) g) o phi, and both walks have
    the eigenvalues (-1)^d/(d+1) with eigenfunctions g_d and g_d o phi;
  * the invariant density pushes forward: pi_trig = 2 phi phi', which is
    (pi/2) sin(pi x)(1 - cos(pi x)).  Composition with phi is an isometry
    of L^2(2u du) onto L^2(pi_trig), so g_d o phi stays orthonormal.

So every walk is kappa(a, b) in a coordinate, and `_coordinate` is the one
place that knows phi and phi' (for kappa, phi(x) = x).  The residuals
evaluate kappa's operators at phi(grid); the one-step density R_P pi and
the invariant density pick up the factor phi'.

The step operator of kappa(a, b) maps polynomials of degree <= D to
themselves.  On monomials it is an upper-triangular matrix over Q
(`lp_triangular`) whose diagonal holds the eigenvalues, so the
eigenfunctions are its exact eigenvectors, found by the integer
back-substitution that also gives the discrete eigenvectors
(`_linalg.triangular_eigenvectors`).  The construction is exact and only
the final normalization is a float, which keeps orthogonality stable up to
degree ~12.

The eigen residuals and the fixed-point check integrate polynomials in the
variable u of `lp_apply`, so one Gauss-Legendre panel of order
floor(degree/2)+1 is exact for each; that panel runs over the whole
evaluation grid at once with numpy.  `lp_apply` and `lh_apply` take
arbitrary observables and integrate the definition of each walk directly,
by adaptive Gauss-Legendre quadrature with interval bisection
(`_continuum.adaptive_quad`, which needs no numpy): they are the reference
that the exact path is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _linalg as la
from ._continuum import CONVERGENCE_MAX_N, CONVERGENCE_MAX_SIZES, adaptive_quad
from .errors import OutOfRange
from .spectral import eigenvalues_closed_form, family_lambda, right_eigenvectors
from .weights import GammaAB

GRID_POINTS = 101  # evaluation grid k/101, k = 1..101; x = 0 stays excluded


QUAD_TOLERANCE = 1e-10  # absolute tolerance of lp_apply and lh_apply


def _check_ab(a, b) -> None:
    if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
        raise OutOfRange(f"kappa(a, b) needs integers a, b >= 0, got a={a!r}, b={b!r}")


@dataclass(frozen=True)
class ContinuousWalk:
    kind: str  # "kappa" or "trig"; trig runs as kappa(0, 0) in its coordinate
    a: int = 0
    b: int = 0

    def __post_init__(self):
        if self.kind not in ("kappa", "trig"):
            raise OutOfRange(f"unknown continuous walk kind {self.kind!r}")
        if self.kind == "trig" and (self.a, self.b) != (0, 0):
            raise OutOfRange(f"the trigonometric walk has a = b = 0, got {self.a!r}, {self.b!r}")
        _check_ab(self.a, self.b)


def kappa_walk(a: int, b: int) -> ContinuousWalk:
    return ContinuousWalk("kappa", a, b)


def trig_walk() -> ContinuousWalk:
    return ContinuousWalk("trig")


def _coordinate(walk: ContinuousWalk, x):
    """(phi(x), phi'(x)) for the coordinate in which the walk is kappa(a, b);
    x may be a numpy array.  See the module docstring for the trigonometric
    walk's phi(x) = (1 - cos(pi x))/2."""
    if walk.kind == "kappa":
        return x, 1.0
    return (1 - np.cos(np.pi * x)) / 2, (np.pi / 2) * np.sin(np.pi * x)


@dataclass(frozen=True)
class PolyFunction:
    """Polynomial in monomials of its variable: x for kappa(a, b), phi(x)
    for the trigonometric walk.

    The coefficients come from `jacobi_eigenfunctions`, which also supplies
    the three-term recurrence that evaluates them: beyond degree ~8 the
    monomial coefficients grow so large that Horner evaluation would lose
    1e-9 of accuracy to cancellation, while the recurrence stays at machine
    precision and also evaluates elementwise on numpy arrays.
    """

    coefficients: tuple
    recurrence: tuple  # (alphas, betas, scale) for the monic polynomial

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
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
    return (-1) ** d * float(family_lambda(GammaAB(walk.a, walk.b), d))


def lp_apply(walk: ContinuousWalk, f, x: float) -> float:
    """Quadrature evaluation of (L_P f)(x); undefined at x = 0."""
    if not 0 < x <= 1:
        raise OutOfRange(f"L_P is defined for 0 < x <= 1, got {x}")
    g = _as_callable(f)
    # substitute z = 1 - x + x u to keep the integrand O(1) near x = 0
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        const = (a + b + 1) * math.comb(a + b, a)
        integrand = lambda u: (1 - u) ** a * u**b * g(1 - x + x * u)
        return const * adaptive_quad(integrand, 0.0, 1.0, QUAD_TOLERANCE)
    # sin(pi z) = sin(pi x (1 - u)), and N_x = (1 - cos(pi x))/pi = 2 sin^2(pi x/2)/pi
    const = math.pi * x / (2 * math.sin(math.pi * x / 2) ** 2)
    integrand = lambda u: const * math.sin(math.pi * x * (1 - u)) * g(1 - x + x * u)
    return adaptive_quad(integrand, 0.0, 1.0, QUAD_TOLERANCE)


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


def jacobi_monic(a: int, b: int, dmax: int) -> list:
    """Monic eigenfunctions g_0, ..., g_dmax of kappa(a, b), exact over Q.

    g_d is the monomial coefficient list of the eigenvector of
    `lp_triangular` for its diagonal entry d, scaled to leading coefficient
    1.  The diagonal entries are distinct (their absolute values fall by the
    factor (a+d+1)/(a+b+d+2) < 1 at each step), so back-substitution
    determines it.  For the self-adjoint L_P these are the monic orthogonal
    polynomials of the invariant density.
    """
    t = la.integer_matrix(lp_triangular(a, b, dmax))[0]
    return [[Fraction(x, v[-1]) for x in v] for v in la.triangular_eigenvectors(t)]


def jacobi_eigenfunctions(a: int, b: int, dmax: int) -> list:
    """Eigenfunctions of kappa(a, b), orthonormal in L^2(pi).

    pi is proportional to (1-x)^a x^(a+b+1) on [0, 1], so these are shifted
    Jacobi polynomials with parameters (a, a+b+1), the normalized
    `jacobi_monic`.  For a = b = 0 they are also the trigonometric walk's
    eigenfunctions in its coordinate phi (see the module docstring).  Each
    output carries its exact three-term recurrence
    x g_k = g_{k+1} + alpha_k g_k + beta_k g_{k-1} for stable evaluation:
    alpha_k = [x^(k-1)] g_k - [x^k] g_{k+1} by comparing coefficients, and
    beta_k = h_k / h_{k-1}, where the squared norm h_k = <g_k, x^k> is a
    sum of exact rational Beta moments.
    """
    _check_dmax(dmax)
    monic = jacobi_monic(a, b, dmax)
    moments = [_beta_moment(a, b, k) for k in range(2 * dmax + 1)]
    norms = [sum(c * moments[j + d] for j, c in enumerate(g)) / moments[0]
             for d, g in enumerate(monic)]
    alphas = [float((g[-2] if d else 0) - nxt[-2])
              for d, (g, nxt) in enumerate(zip(monic, monic[1:]))]
    betas = [0.0] + [float(norms[k] / norms[k - 1]) for k in range(1, dmax + 1)]
    out = []
    for d, (vec, h) in enumerate(zip(monic, norms)):
        scale = 1.0 / math.sqrt(float(h))
        coeffs = tuple(float(c) * scale for c in vec)
        out.append(PolyFunction(coeffs, (tuple(alphas[:d]), tuple(betas[:d]), scale)))
    return out


def _grid():
    return [k / GRID_POINTS for k in range(1, GRID_POINTS + 1)]


@functools.cache
def _unit_panel(degree: int):
    """Gauss-Legendre nodes on [0, 1] and weights summing to 1, of order
    floor(degree/2)+1: exact up to rounding for polynomials of that degree."""
    nodes, weights = leggauss(degree // 2 + 1)
    return 0.5 * (nodes + 1.0), 0.5 * weights


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


def eigen_residuals(walk: ContinuousWalk, dmax: int) -> list:
    """max over the grid of |L_P g_d(x) - eigenvalue * g_d(x)|, for d = 0..dmax.

    g_d is `jacobi_eigenfunctions(a, b, dmax)[d]` read in the walk's
    coordinate, so the grid is mapped by phi once and L_P g_d comes from one
    exact Gauss-Legendre panel in the variable u of `lp_apply`, evaluated
    over the whole mapped grid at once.  It is an independent check of the
    eigenfunction against the integral definition of kappa's L_P; for the
    trigonometric walk it rests on the identity of the module docstring,
    which the tests check against `lp_apply`.
    """
    a, b = walk.a, walk.b
    u, _ = _coordinate(walk, np.array(_grid()))
    out = []
    for d, g in enumerate(jacobi_eigenfunctions(a, b, dmax)):
        lp = _kappa_lp_panel(a, b, g, d, u)
        out.append(float(np.max(np.abs(lp - walk_eigenvalue(walk, d) * g(u)))))
    return out


def _kappa_density(a: int, b: int, x):
    """Invariant density of kappa(a, b); x may be a numpy array."""
    c = (2 * a + b + 2) * math.comb(2 * a + b + 1, a)
    return c * (1 - x) ** a * x ** (a + b + 1)


def cts_invariant(walk: ContinuousWalk, x: float) -> float:
    """Normalized invariant density at x: kappa's at phi(x), times phi'(x)."""
    if not 0 <= x <= 1:
        raise OutOfRange(f"x={x} outside [0, 1]")
    u, du = _coordinate(walk, x)
    return float(_kappa_density(walk.a, walk.b, u) * du)


def _rp_invariant(walk: ContinuousWalk, z):
    """(R_P pi)(z): the density at z after one step from the invariant law.

    z is a float or an array.  In the coordinate s = phi(z) the walk is
    kappa(a, b), whose one-step density at s is the integral over x in
    [1-s, 1] of w[1-s, x]/N_x * pi(x).  That integrand is a polynomial of
    degree a+b in x, since N_x cancels the factor x^(a+b+1) of pi, so one
    Gauss-Legendre panel gives it exactly up to rounding.  The density in z
    is the one in s times phi'(z).
    """
    a, b = walk.a, walk.b
    s, ds = _coordinate(walk, np.asarray(z, dtype=float))
    s = s[..., None]
    u, w = _unit_panel(a + b)
    x = 1 - s + s * u
    values = (1 - s) ** a * (x + s - 1) ** b / kappa_norm(a, b, x) * _kappa_density(a, b, x)
    return (s * values) @ w * ds


def fixed_point_residual(walk: ContinuousWalk) -> float:
    """max-grid residual of the stationarity equation (R_P pi)(z) = pi(z)."""
    grid = _grid()
    pi = np.array([cts_invariant(walk, z) for z in grid])
    return float(np.max(np.abs(_rp_invariant(walk, grid) - pi)))


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
    _check_ab(a, b)
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
