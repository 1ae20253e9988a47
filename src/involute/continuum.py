"""Floating-point involutive walks on the interval [0, 1].

Two real weights are supported: the polynomial kernel kappa(a, b) with
weight y^a (x-y)^b on [0, x] (integers a, b >= 0, a + b <= 90), and the
trigonometric walk with atomic weight sin(pi y) and constant star-symmetric
part.  The step operator acting on observables is

    (L_P f)(x) = integral over z in [1-x, 1] of  w[1-z, x]/N_x * f(z) dz,

a compact self-adjoint operator on L^2(pi), the Hilbert space weighted by
the invariant density pi.  For kappa its eigenfunctions are shifted-Jacobi
polynomials with the signed eigenvalues of gamma(a,b) (`weights`).  Every
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
themselves, and its eigenvalues are distinct, so being self-adjoint its
eigenfunctions are the orthogonal polynomials of the invariant density,
shifted Jacobi polynomials.  Their monic three-term
recurrence is a closed form (Koekoek, Lesky and Swarttouw 2010, section
9.8; `_jacobi_recurrence`), exact over Q, and only the final normalization
is a float; dmax <= DEGREE_CAP = 12 is the range the tests cover.  The exact
eigenvectors of L_P on monomials, by integer back-substitution, and the
Gram-Schmidt route are test oracles (tests/oracles.py) that the closed
form is checked against.  `jacobi_eigenfunctions` is the one evaluator:
one run of the recurrence gives every g_d, d <= dmax, at a float or an
array.  The monic g_d has its d zeros inside (0, 1), so g_d(0) has the sign
(-1)^d, while the discrete right eigenvector has v_d(0) > 0.

No eigenvalue is missing from {(-1)^d lambda_d}, for the (a, b) tested: the
squared eigenvalues of a self-adjoint Hilbert-Schmidt operator sum to its
squared Hilbert-Schmidt norm, a double integral that equals the 3F2 sum of
the lambda_d^2.  The discrete sum lambda_d^2 = tr P^2 proves nothing, as it
holds for every matrix.

The eigen residuals and the fixed-point check integrate polynomials in the
variable u of `lp_apply`, so one Gauss-Legendre panel of order
floor(degree/2)+1 is exact for each, and it runs over the whole evaluation
grid at once with numpy.  `eigen_residuals` takes every g_d from one pass of
the recurrence over the mapped grid beside the points 1 - x + x u of one
panel, the one of degree a+b+DEGREE_CAP, which is exact for every g_d and
the same whatever dmax is, so the residual of g_d does not depend on dmax.
One stacked product then gives every L_P g_d, and one reduction every
residual.  The invariant density is one numpy expression over the grid.
`lp_apply` and `lh_apply` take arbitrary observables and integrate the
definition of each walk directly, by adaptive Gauss-Legendre quadrature
with interval bisection (`_continuum.adaptive_quad`, which needs no numpy):
they are the reference that the exact path is tested against.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np

from ._continuum import CONVERGENCE_MAX_N, CONVERGENCE_MAX_SIZES, _gauss_legendre, adaptive_quad
from ._record import FrozenRecord
from .errors import OutOfRange
from .spectral import right_eigenvectors
from .weights import GammaAB, ac_sequence, family_sequence

GRID_POINTS = 101  # evaluation grid k/101, k = 1..101; x = 0 stays excluded
DEGREE_CAP = 12  # eigenfunctions g_d for d <= DEGREE_CAP, the range the tests cover


QUAD_TOLERANCE = 1e-10  # absolute tolerance of lp_apply and lh_apply


def _check_ab(a, b) -> None:
    """Integers a, b >= 0 with a + b <= 90, the domain the tests cover.

    The floats hold well past it: with the bound lifted, `continuum`
    --residual 12, --fixed-point, --invariant and --convergence 5 all gave
    finite output for (s, 0), (0, s) and (s//2, s - s//2) up to
    a + b = 427.  The first failure, at 428 for the even split, is the
    integer constant of `_rp_invariant` overflowing a float.  The eigen
    residual is absolute and grows with sup |g_d| (1.6e-5 at (87, 0)); it
    stays below 1e-13 relative to max(1, sup |g_d|) up to a + b = 90.
    """
    if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
        raise OutOfRange(f"kappa(a, b) needs integers a, b >= 0, got a={a!r}, b={b!r}")
    if a + b > 90:
        raise OutOfRange(f"kappa(a, b) supported for a + b <= 90, got a={a}, b={b}")


class ContinuousWalk(FrozenRecord):
    __slots__ = _fields = ("kind", "a", "b")

    def __init__(self, kind: str, a: int = 0, b: int = 0):
        # kind is "kappa" or "trig"; trig runs as kappa(0, 0) in its coordinate
        if kind not in ("kappa", "trig"):
            raise OutOfRange(f"unknown continuous walk kind {kind!r}")
        if kind == "trig" and (a, b) != (0, 0):
            raise OutOfRange(f"the trigonometric walk has a = b = 0, got {a!r}, {b!r}")
        _check_ab(a, b)
        self._freeze(kind, a, b)


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


def lp_apply(walk: ContinuousWalk, f, x: float) -> float:
    """Quadrature evaluation of (L_P f)(x); undefined at x = 0."""
    if not 0 < x <= 1:
        raise OutOfRange(f"L_P is defined for 0 < x <= 1, got {x}")
    # substitute z = 1 - x + x u to keep the integrand O(1) near x = 0
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        const = (a + b + 1) * math.comb(a + b, a)
        integrand = lambda u: (1 - u) ** a * u**b * f(1 - x + x * u)
        return const * adaptive_quad(integrand, 0.0, 1.0, QUAD_TOLERANCE)
    # sin(pi z) = sin(pi x (1 - u)), and N_x = (1 - cos(pi x))/pi = 2 sin^2(pi x/2)/pi
    const = math.pi * x / (2 * math.sin(math.pi * x / 2) ** 2)
    integrand = lambda u: const * math.sin(math.pi * x * (1 - u)) * f(1 - x + x * u)
    return adaptive_quad(integrand, 0.0, 1.0, QUAD_TOLERANCE)


def lh_apply(walk: ContinuousWalk, f, x: float) -> float:
    """Down-step operator; L_H f equals L_P applied to the reflection of f."""
    if not 0 < x <= 1:
        raise OutOfRange(f"L_H is defined for 0 < x <= 1, got {x}")
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        const = (a + b + 1) * math.comb(a + b, a)
        integrand = lambda w: w**a * (1 - w) ** b * f(x * w)
        return const * adaptive_quad(integrand, 0.0, 1.0, QUAD_TOLERANCE)
    return lp_apply(walk, lambda z: f(1 - z), x)


def _jacobi_recurrence(a: int, b: int, dmax: int) -> tuple:
    """(alphas, betas), exact, each value a reduced integer pair (num, den):
    the monic three-term recurrence x g_k = g_{k+1} + alpha_k g_k +
    beta_k g_{k-1} of the orthogonal polynomials of (1-x)^A x^B on [0, 1],
    A = a and B = a+b+1.

    With s = A + B these are the Jacobi (A, B) coefficients of Koekoek,
    Lesky and Swarttouw (2010), section 9.8, carried from [-1, 1] to [0, 1]
    by x = (1+t)/2, which halves alpha about 1/2 and quarters beta:

        alpha_k = 1/2 + (B^2 - A^2) / (2 (2k+s) (2k+s+2)),   k < dmax,
        beta_k  = k (k+A) (k+B) (k+s) / ((2k+s)^2 (2k+s+1) (2k+s-1)),

    for 1 <= k <= dmax; betas[0] is 0, the coefficient of the absent
    g_{-1}.  s = 2a+b+1 >= 1, so no denominator vanishes.
    """
    big_a, big_b = a, a + b + 1
    s = big_a + big_b
    alphas = []
    for k in range(dmax):
        m = (2 * k + s) * (2 * k + s + 2)
        alphas.append(_reduced(m + big_b**2 - big_a**2, 2 * m))
    betas = [(0, 1)] + [
        _reduced(k * (k + big_a) * (k + big_b) * (k + s),
                 (2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
        for k in range(1, dmax + 1)]
    return alphas, betas


def _reduced(num: int, den: int) -> tuple:
    g = math.gcd(num, den)
    return num // g, den // g


def _recurrence_floats(a: int, b: int, dmax: int) -> tuple:
    """(alphas, betas, scales) of g_0, ..., g_dmax as float lists: the
    recurrence of `_jacobi_recurrence` and each g_d's scale 1/sqrt(h_d).
    The squared norm of the monic g_d in the probability law pi is
    h_d = beta_1 ... beta_d (h_0 = 1).  Every float is one int / int
    division, which rounds the exact quotient correctly, as `float` of the
    `Fraction` would."""
    if not 0 <= dmax <= DEGREE_CAP:
        raise OutOfRange("eigenfunction construction supported for "
                         f"0 <= dmax <= {DEGREE_CAP}, got {dmax}")
    alphas, betas = _jacobi_recurrence(a, b, dmax)
    norms = accumulate(betas[1:], lambda h, beta: (h[0] * beta[0], h[1] * beta[1]),
                       initial=(1, 1))
    return ([num / den for num, den in alphas], [num / den for num, den in betas],
            [1.0 / math.sqrt(num / den) for num, den in norms])


def jacobi_eigenfunctions(a: int, b: int, dmax: int, x) -> np.ndarray:
    """g_0(x), ..., g_dmax(x), the eigenfunctions of kappa(a, b) orthonormal
    in L^2(pi), as one array of shape (dmax+1, *x.shape); x is a float or
    an array.

    pi is proportional to (1-x)^a x^(a+b+1) on [0, 1], so these are shifted
    Jacobi polynomials with parameters (a, a+b+1).  For a = b = 0 they are
    also the trigonometric walk's eigenfunctions in its coordinate phi (see
    the module docstring).  One run of the monic three-term recurrence of
    `_recurrence_floats` fills the rows, and one product scales them.
    """
    alphas, betas, scales = _recurrence_floats(a, b, dmax)
    x = np.asarray(x, dtype=float)
    values = np.empty((dmax + 1, *x.shape))
    values[0] = 1.0
    for k, alpha in enumerate(alphas):
        # (x - alpha) g_k - beta_k g_(k-1), built in place in row k+1; the
        # ellipsis keeps the row a view when x is a float
        nxt = values[k + 1, ...]
        np.subtract(x, alpha, out=nxt)
        nxt *= values[k]
        if k:
            nxt -= betas[k] * values[k - 1]
    values *= np.reshape(scales, (-1,) + (1,) * x.ndim)
    return values


def grid() -> np.ndarray:
    """The evaluation grid k/GRID_POINTS, k = 1..GRID_POINTS; numpy's
    division rounds each point as the float k / GRID_POINTS does."""
    return np.arange(1, GRID_POINTS + 1) / GRID_POINTS


@functools.cache
def _unit_panel(degree: int):
    """Gauss-Legendre nodes on [0, 1] and weights summing to 1, of order
    floor(degree/2)+1: exact up to rounding for polynomials of that degree."""
    nodes, weights = map(np.array, _gauss_legendre(degree // 2 + 1))
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _lp_pass(a: int, b: int, dmax: int, u: np.ndarray) -> tuple:
    """(L_P g_d, g_d) for kappa(a, b) at every point of the array u, for
    d = 0..dmax: two arrays of shape (dmax+1, u.size).

    After z = 1 - x + x t the integrand (1-t)^a t^b g_d(z) of `lp_apply` is
    a polynomial of degree a+b+d <= a+b+DEGREE_CAP in t, so the one panel
    `_unit_panel(a + b + DEGREE_CAP)` integrates every degree exactly up to
    rounding, the same panel whatever dmax is.  The eigenfunctions are
    evaluated once, over the column u beside the panel's points z, and one
    product with the panel's kernel w (1-t)^a t^b gives every L_P g_d.
    """
    t, w = _unit_panel(a + b + DEGREE_CAP)
    x = u[:, None]
    values = jacobi_eigenfunctions(a, b, dmax, np.hstack([x, 1 - x + x * t]))
    const = (a + b + 1) * math.comb(a + b, a)
    return const * (values[:, :, 1:] @ (w * (1 - t) ** a * t**b)), values[:, :, 0]


def eigen_residuals(walk: ContinuousWalk, dmax: int) -> list:
    """max over the grid of |L_P g_d(x) - eigenvalue * g_d(x)|, for d = 0..dmax.

    g_d is row d of `jacobi_eigenfunctions` read in the walk's
    coordinate, so the grid is mapped by phi once, and `_lp_pass` gives
    every L_P g_d, from one exact Gauss-Legendre panel in the variable u of
    `lp_apply`, and every g_d.  That panel does not depend on dmax, so
    neither does the residual of g_d.  The eigenvalue (-1)^d lambda_d of
    the discrete gamma(a, b) walk is one int / int division of its closed
    form (`weights.ac_sequence`).  The residual is an independent check of
    the eigenfunction against the integral definition of kappa's L_P; for
    the trigonometric walk it rests on the identity of the module
    docstring, which the tests check against `lp_apply`.
    """
    a, b = walk.a, walk.b
    u, _ = _coordinate(walk, grid())
    lp, g = _lp_pass(a, b, dmax, u)
    sigma = [(-p if d % 2 else p) / q
             for d, (p, q) in enumerate(ac_sequence(a + 1, a + b + 2, dmax + 1))]
    return np.max(np.abs(lp - np.array(sigma)[:, None] * g), axis=1).tolist()


def _kappa_density(a: int, b: int, x):
    """Invariant density of kappa(a, b); x may be a numpy array."""
    c = (2 * a + b + 2) * math.comb(2 * a + b + 1, a)
    return c * (1 - x) ** a * x ** (a + b + 1)


def cts_invariant(walk: ContinuousWalk, x):
    """Normalized invariant density at x, a float or an array of them:
    kappa's at phi(x), times phi'(x)."""
    x = np.asarray(x, dtype=float)
    for extreme in (x.min(initial=0.0), x.max(initial=1.0)):  # nan if x holds one
        if not 0 <= extreme <= 1:
            raise OutOfRange(f"x={extreme} outside [0, 1]")
    u, du = _coordinate(walk, x)
    return _kappa_density(walk.a, walk.b, u) * du


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
    # 1/N_x = (a+b+1) binom(a+b, b) / x^(a+b+1) and, as in `_kappa_density`,
    # pi(x) = (2a+b+2) binom(2a+b+1, a) (1-x)^a x^(a+b+1): the powers cancel
    const = (a + b + 1) * math.comb(a + b, b) * (2 * a + b + 2) * math.comb(2 * a + b + 1, a)
    values = const * (1 - s) ** a * (x + s - 1) ** b * (1 - x) ** a
    return (s * values) @ w * ds


def fixed_point_residual(walk: ContinuousWalk) -> float:
    """max-grid residual of the stationarity equation (R_P pi)(z) = pi(z)."""
    zs = grid()
    return float(np.max(np.abs(_rp_invariant(walk, zs) - cts_invariant(walk, zs))))


def convergence_table(a: int, b: int, degrees, n_list) -> list:
    """Sup-distances between the rescaled discrete eigenvectors and g_d: one
    row of distances per d of degrees, one entry per n of n_list.

    For each n the exact right eigenvector of the n-state gamma(a, b) walk
    is read as a function of x = i/n (entry i sits at n*x = i, matching the
    limit statement; the x/(n-1) alternative collapses the d = 1 comparison
    to exactly zero because both sides are affine with the same root).
    Both vectors are scaled to sup-norm 1 over the grid with matching sign
    at the left endpoint x = 0, and the sup-distance over the n points
    returns.  The signs there are fixed by the closed forms:

      * v_d(0) > 0: `right_eigenvectors` makes the first nonzero entry of
        each vector positive, and v_d(0) is the Hahn value Q_d(0) = 1 times
        a positive scale, so it is that entry;
      * g_d(0) has the sign (-1)^d: the monic g_d has its d zeros inside
        (0, 1), as every orthogonal polynomial has inside the support of its
        weight, and its scale is positive.

    So g_d times (-1)^d is matched against v_d.  Each n's exact right
    eigenvectors are built once, up to max(degrees), and the points of all
    sizes sit side by side in one array, so the eigenfunctions are
    evaluated in one call and each reduction runs once over all sizes.
    Supported: 0 <= d <= 5, d < n <= CONVERGENCE_MAX_N, and at most
    CONVERGENCE_MAX_SIZES sizes.
    """
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
    # lambda_d does not depend on n: each walk's sequence is a prefix of the longest
    lam = family_sequence(GammaAB(Fraction(a), Fraction(b)), max(n_list, default=1))
    # every size's points i/n side by side, one row per degree
    starts = list(accumulate(n_list, initial=0))[:-1]
    xs = np.array([i / n for n in n_list for i in range(n)])
    rights = [right_eigenvectors(lam[:n], top) for n in n_list]
    w_hat = _sup_normalize(np.array([[v for r in rights for v in r[d]] for d in degrees],
                                    dtype=float), starts, n_list)
    g = jacobi_eigenfunctions(a, b, top, xs)[list(degrees)]
    g *= np.array([(-1.0) ** d for d in degrees])[:, None]
    g_hat = _sup_normalize(g, starts, n_list)
    return np.maximum.reduceat(np.abs(w_hat - g_hat), starts, axis=1).tolist()


def _sup_normalize(values: np.ndarray, starts: list, sizes) -> np.ndarray:
    """Each row's segments of the given sizes, from starts, scaled to sup-norm 1."""
    peaks = np.maximum.reduceat(np.abs(values), starts, axis=1)
    return values / np.repeat(peaks, sizes, axis=1)
