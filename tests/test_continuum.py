"""Interval walk: quadrature, eigenfunctions, residuals, convergence."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from involute import _continuum
from involute.continuum import (
    CONVERGENCE_MAX_N,
    CONVERGENCE_MAX_SIZES,
    GRID_POINTS,
    ContinuousWalk,
    adaptive_quad,
    convergence_table,
    cts_invariant,
    discrete_convergence,
    eigen_residuals,
    fixed_point_residual,
    jacobi_eigenfunctions,
    jacobi_monic,
    kappa_norm,
    kappa_walk,
    lh_apply,
    lp_apply,
    lp_triangular,
    trig_walk,
    walk_eigenvalue,
    _beta_moment,
    _kappa_lp_panel,
    _rp_invariant,
)
from involute.errors import OutOfRange, QuadratureNonConvergence
from involute.spectral import family_lambda
from involute.weights import GammaAB


def quad(f, lo, hi, tol=1e-12):
    return adaptive_quad(f, lo, hi, tol)


def _phi(x):
    """The coordinate in which the trigonometric walk is kappa(0, 0)."""
    return (1 - math.cos(math.pi * x)) / 2


def test_kappa_norm_examples():
    assert kappa_norm(0, 0, 0.25) == 0.25
    assert abs(kappa_norm(1, 1, 1.0) - 1 / 6) < 1e-15
    assert abs(kappa_norm(2, 1, 0.5) - 0.5**4 / 12) < 1e-15


def test_kappa_norm_matches_quadrature():
    for a, b in ((0, 0), (1, 2), (2, 2)):
        for x in (0.3, 0.75, 1.0):
            direct = quad(lambda y: y**a * (x - y) ** b, 0.0, x)
            assert abs(direct - kappa_norm(a, b, x)) < 1e-11


def test_beta_moments():
    for a in range(4):
        for b in range(4):
            for k in range(9):
                closed = F(1, (a + b + k + 2) * math.comb(2 * a + b + k + 2, a))
                assert _beta_moment(a, b, k) == closed
                direct = quad(lambda x: (1 - x) ** a * x ** (a + b + 1 + k), 0.0, 1.0)
                assert abs(direct - float(closed)) < 1e-12


def test_lp_apply_examples():
    w = kappa_walk(0, 0)
    assert abs(lp_apply(w, lambda z: 1.0, 0.62) - 1.0) < 1e-12
    assert abs(lp_apply(w, lambda z: z - 2 / 3, 1.0) + 1 / 6) < 1e-12
    t = trig_walk()
    assert abs(lp_apply(t, lambda z: math.cos(math.pi * z), 0.5) + 0.5) < 1e-12
    with pytest.raises(OutOfRange):
        lp_apply(w, lambda z: 1.0, 0.0)


def test_jacobi_eigenfunctions():
    g = jacobi_eigenfunctions(0, 0, 2)
    assert abs(g[0](0.5) - 1) < 1e-14
    # g1 is proportional to x - 2/3
    root = -g[1].coefficients[0] / g[1].coefficients[1]
    assert abs(root - 2 / 3) < 1e-14
    # orthonormality in L^2(pi), pi(x) = 2x (a = b = 0)
    for d, e in ((0, 1), (0, 2), (1, 2)):
        inner = quad(lambda x: 2 * x * g[d](x) * g[e](x), 0.0, 1.0)
        assert abs(inner) < 1e-12
        norm = quad(lambda x: 2 * x * g[d](x) * g[d](x), 0.0, 1.0)
        assert abs(norm - 1) < 1e-12


def test_walk_eigenvalues():
    assert walk_eigenvalue(kappa_walk(0, 0), 1) == -0.5
    assert abs(walk_eigenvalue(kappa_walk(1, 2), 3) + 4 / 35) < 1e-16
    assert walk_eigenvalue(trig_walk(), 2) == 1 / 3


def test_eigen_residual_examples():
    assert eigen_residuals(kappa_walk(0, 0), 1)[1] < 1e-8
    assert eigen_residuals(kappa_walk(1, 2), 3)[3] < 1e-8
    assert eigen_residuals(trig_walk(), 0)[0] < 1e-12


def test_eigen_residual_high_degree():
    # recurrence-based evaluation keeps the full dmax <= 12 range usable;
    # naive Horner on the monomial coefficients would lose ~1e-9 here
    assert eigen_residuals(kappa_walk(0, 0), 12)[12] < 1e-10
    assert eigen_residuals(kappa_walk(2, 2), 12)[12] < 1e-10
    assert eigen_residuals(trig_walk(), 12)[12] < 1e-10


def test_lh_fixes_monomials():
    for a, b in ((0, 0), (1, 1), (2, 0), (0, 2)):
        w = kappa_walk(a, b)
        for d in range(7):
            lam = abs(walk_eigenvalue(w, d))
            for x in (0.2, 0.7, 1.0):
                assert abs(lh_apply(w, lambda y: y**d, x) - lam * x**d) < 1e-9


def test_trig_cosine_power_identity():
    t = trig_walk()
    for d in range(4):
        for x in (0.1, 0.45, 0.8, 1.0):
            lhs = lp_apply(t, lambda z: math.cos(math.pi * z) ** d, x)
            c = math.cos(math.pi * x)
            rhs = (-1) ** d * sum(c**k for k in range(d + 1)) / (d + 1)
            assert abs(lhs - rhs) < 1e-9


def test_trig_eigenfunction_orthonormality():
    # the trigonometric walk's eigenfunctions are g_d o phi, g_d those of kappa(0, 0)
    g = [lambda x, gd=gd: gd(_phi(x)) for gd in jacobi_eigenfunctions(0, 0, 4)]

    def density(x):
        return (math.pi / 2) * math.sin(math.pi * x) * (1 - math.cos(math.pi * x))

    for d in range(5):
        for e in range(d, 5):
            inner = quad(lambda x: density(x) * g[d](x) * g[e](x), 0.0, 1.0)
            assert abs(inner - (1.0 if d == e else 0.0)) < 1e-11


def test_self_adjointness():
    rng = random.Random(3)
    for walk in (kappa_walk(1, 1), trig_walk()):
        if walk.kind == "kappa":
            density = lambda x: cts_invariant(walk, x)
        else:
            density = lambda x: cts_invariant(walk, x)
        for _ in range(3):
            fc = [rng.uniform(-1, 1) for _ in range(3)]
            gc = [rng.uniform(-1, 1) for _ in range(3)]
            f = lambda x: fc[0] + fc[1] * x + fc[2] * x * x
            g = lambda x: gc[0] + gc[1] * x + gc[2] * x * x
            lhs = quad(lambda x: density(x) * f(x) * lp_apply(walk, g, x), 1e-9, 1.0, 1e-10)
            rhs = quad(lambda x: density(x) * g(x) * lp_apply(walk, f, x), 1e-9, 1.0, 1e-10)
            assert abs(lhs - rhs) < 1e-8


def test_cts_invariant():
    w = kappa_walk(0, 0)
    for x in (0.0, 0.3, 1.0):
        assert abs(cts_invariant(w, x) - 2 * x) < 1e-15
    assert abs(cts_invariant(trig_walk(), 0.5) - math.pi / 2) < 1e-15
    for x in (0.0, 0.2, 0.7, 1.0):
        closed = (math.pi / 2) * math.sin(math.pi * x) * (1 - math.cos(math.pi * x))
        assert abs(cts_invariant(trig_walk(), x) - closed) < 1e-15
    # kappa(1, 0): density 12 (1-x) x^2 integrates to one
    w10 = kappa_walk(1, 0)
    assert abs(cts_invariant(w10, 0.5) - 1.5) < 1e-15
    for walk in (w10, kappa_walk(2, 1), trig_walk()):
        mass = quad(lambda x: cts_invariant(walk, x), 0.0, 1.0, 1e-12)
        assert abs(mass - 1) < 1e-10


def test_fixed_point_residuals():
    assert fixed_point_residual(kappa_walk(0, 0)) < 1e-7
    assert fixed_point_residual(kappa_walk(2, 1)) < 1e-7
    assert fixed_point_residual(trig_walk()) < 1e-7


def test_discrete_convergence():
    assert discrete_convergence(0, 0, 0, [10, 25]) == [0.0, 0.0]
    d1 = discrete_convergence(0, 0, 1, [10, 40])
    assert d1[1] < d1[0]
    d2 = discrete_convergence(0, 0, 2, [10, 20, 40, 80])
    assert all(d2[i + 1] < d2[i] for i in range(3))


def test_kappa_walk_needs_integer_parameters():
    for bad in (F(1, 2), F(2), 0.5, -1):
        with pytest.raises(OutOfRange):
            kappa_walk(bad, 0)
        with pytest.raises(OutOfRange):
            kappa_walk(0, bad)
    with pytest.raises(OutOfRange):
        ContinuousWalk("cosine")


def test_trig_walk_takes_no_parameters():
    for a, b in ((2, 0), (0, 1), (F(1, 2), 0), (-1, 0)):
        with pytest.raises(OutOfRange):
            ContinuousWalk("trig", a, b)
    assert ContinuousWalk("trig", 0, 0) == trig_walk()


def test_convergence_table_needs_integer_parameters():
    for a, b in ((F(1, 2), 0), (0, 0.5), (-1, 0)):
        with pytest.raises(OutOfRange):
            convergence_table(a, b, (1,), [10])
        with pytest.raises(OutOfRange):
            discrete_convergence(a, b, 1, [10])


def test_gauss_legendre_matches_numpy():
    # the reference quadrature finds its own nodes, numpy-free
    for order in range(1, _continuum.QUAD_PANEL_ORDER + 1):
        nodes, weights = _continuum._gauss_legendre(order)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(order)
        assert np.allclose(nodes, want_nodes, rtol=0, atol=1e-15)
        assert np.allclose(weights, want_weights, rtol=0, atol=2e-15)


def test_quadrature_budget(monkeypatch):
    monkeypatch.setattr(_continuum, "QUAD_NODE_BUDGET", 60)
    wobble = lambda x: math.sin(300 * x) / (1e-3 + abs(x - 0.37))
    with pytest.raises(QuadratureNonConvergence):
        adaptive_quad(wobble, 0.0, 1.0, 1e-14)


def test_eigen_residuals_match_single_index():
    # g_d does not depend on dmax, so neither does its residual
    for walk in (kappa_walk(1, 2), trig_walk()):
        assert eigen_residuals(walk, 4) == [eigen_residuals(walk, d)[d] for d in range(5)]
    for dmax in (-1, 13):
        with pytest.raises(OutOfRange):
            eigen_residuals(kappa_walk(0, 0), dmax)
    with pytest.raises(OutOfRange):
        discrete_convergence(0, 0, 1, [10, 1])
    with pytest.raises(OutOfRange):
        discrete_convergence(0, 0, -1, [10])


# --- exact oracles for the triangular operators ---------------------------


def _monic_gram_schmidt(gram_inner, dim: int) -> tuple[list, list]:
    """Monic exact GS in coefficient space: the vectors and their squared norms."""
    monic: list[list[F]] = []
    norms: list[F] = []
    for d in range(dim):
        vec = [F(0)] * (d + 1)
        vec[d] = F(1)
        for e in range(d):
            prev = monic[e] + [F(0)] * (d + 1 - len(monic[e]))
            coeff = gram_inner(vec, prev) / norms[e]
            vec = [vi - coeff * pi for vi, pi in zip(vec, prev)]
        monic.append(vec)
        norms.append(gram_inner(vec, vec))
    return monic, norms


def _sine_integral_times_pi(m: int) -> F:
    # pi * integral of sin(m pi x) over [0, 1]
    if m == 0:
        return F(0)
    if m % 2 == 0:
        return F(0)
    return F(2 * (1 if m > 0 else -1), abs(m))


def _trig_moment(j: int, k: int) -> F:
    """Exact integral of pi_x cos(j pi x) cos(k pi x) for the trig walk."""

    def t(q: int) -> F:
        return (
            F(1, 4) * (_sine_integral_times_pi(1 + q) + _sine_integral_times_pi(1 - q))
            - F(1, 8) * (_sine_integral_times_pi(2 + q) + _sine_integral_times_pi(2 - q))
        )

    return F(1, 2) * (t(j + k) + t(abs(j - k)))


def _trig_gram_schmidt(dim):
    """Oracle: monic Gram-Schmidt of cos(k pi x), k < dim, under the
    invariant density, from closed-form sine integrals."""

    def inner(p, q):
        return sum(pj * qk * _trig_moment(j, k) for j, pj in enumerate(p)
                   for k, qk in enumerate(q) if pj and qk)

    return _monic_gram_schmidt(inner, dim)


EXACT_AB = [(a, b) for a in range(4) for b in range(4)]


def _lp_monomials_by_integration(a, b, dmax):
    """Oracle: coefficient lists of L_P x^k, k <= dmax, straight from the
    integral definition.  (1 - x + x u)^k is expanded as a polynomial in
    (x, u) by repeated multiplication, and each u^j is integrated exactly
    against (1-u)^a u^b / B(a+1, b+1)."""

    def beta(p, q):  # B(p+1, q+1) for integers p, q >= 0
        return F(math.factorial(p) * math.factorial(q), math.factorial(p + q + 1))

    columns = []
    power = {(0, 0): F(1)}  # {(deg_x, deg_u): coefficient} of (1 - x + x u)^k
    for _ in range(dmax + 1):
        col = [F(0)] * (dmax + 1)
        for (i, j), coeff in power.items():
            col[i] += coeff * beta(a, b + j) / beta(a, b)
        columns.append(col)
        nxt: dict = {}
        for (i, j), coeff in power.items():
            for step, sign in (((0, 0), 1), ((1, 0), -1), ((1, 1), 1)):
                key = (i + step[0], j + step[1])
                nxt[key] = nxt.get(key, F(0)) + sign * coeff
        power = nxt
    return columns


def test_lp_triangular_is_lp_on_monomials():
    for a, b in EXACT_AB:
        t = lp_triangular(a, b, 12)
        columns = _lp_monomials_by_integration(a, b, 12)
        for k in range(13):
            assert [row[k] for row in t] == columns[k]
        for d in range(13):
            assert t[d][d] == (-1) ** d * family_lambda(GammaAB(a, b), d)
            assert all(t[i][d] == 0 for i in range(d + 1, 13))


def test_monic_eigenfunctions_are_exact_eigenvectors():
    # L_P g_d = lambda_d g_d as an identity of polynomials over Q
    for a, b in EXACT_AB:
        columns = _lp_monomials_by_integration(a, b, 12)
        for d, g in enumerate(jacobi_monic(a, b, 12)):
            assert len(g) == d + 1 and g[d] == 1
            image = [sum(c * columns[k][i] for k, c in enumerate(g)) for i in range(13)]
            lam = (-1) ** d * family_lambda(GammaAB(a, b), d)
            assert image == [lam * c for c in g] + [F(0)] * (12 - d)


def test_monic_eigenfunctions_match_gram_schmidt():
    for a, b in ((0, 0), (1, 2), (2, 2), (2, 0), (3, 1)):
        moments = [_beta_moment(a, b, k) for k in range(26)]

        def inner(p, q):
            return sum(pj * qk * moments[j + k] for j, pj in enumerate(p) for k, qk in enumerate(q))

        monic, norms = _monic_gram_schmidt(inner, 13)
        assert jacobi_monic(a, b, 12) == monic
        # the recurrence read off the coefficients is Gram-Schmidt's
        for d, g in enumerate(jacobi_eigenfunctions(a, b, 12)):
            alphas, betas, scale = g.recurrence
            assert alphas == tuple(
                float(inner([F(0)] + p, p) / h) for p, h in zip(monic[:d], norms)
            )
            expected_betas = [0.0] + [float(norms[k] / norms[k - 1]) for k in range(1, d)]
            assert betas == tuple(expected_betas[:d])
            # orthonormal in L^2(pi): the weight is divided by its total mass
            assert scale == 1.0 / math.sqrt(float(norms[d] / moments[0]))


def test_monic_eigenfunctions_match_sympy_jacobi():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for a, b in EXACT_AB:
        for d, g in enumerate(jacobi_monic(a, b, 12)):
            poly = sympy.Poly(sympy.jacobi(d, a, a + b + 1, 2 * x - 1), x)
            coeffs = [c / poly.LC() for c in reversed(poly.all_coeffs())]
            assert g == [F(int(c.p), int(c.q)) for c in coeffs]


# --- float oracles -----------------------------------------------------------


def _scipy_quad(f, lo, hi):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    value, _ = scipy_integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)
    return value


def test_trig_lp_apply_near_zero():
    # z = 1 - x + x u keeps the trigonometric integrand O(1) as x -> 0, where
    # cos(7 pi z) = T_7(1 - 2 phi(z)) goes through the exact kappa(0, 0) panel
    t = trig_walk()
    t7 = np.polynomial.Chebyshev.basis(7)
    for x in (1e-9, 1e-7, 1e-5):
        assert abs(lp_apply(t, lambda z: 1.0, x) - 1.0) < 1e-10
        adaptive = lp_apply(t, lambda z: math.cos(7 * math.pi * z), x)
        panel = _kappa_lp_panel(0, 0, lambda u: t7(1 - 2 * u), 7, [_phi(x)])[0]
        assert abs(panel - adaptive) <= 1e-12 * max(1.0, abs(adaptive))


def _step_kernel(walk, x, z):
    """P(x, z) = w[1-z, x] / N_x, the step density from the definition."""
    if walk.kind == "kappa":
        a, b = walk.a, walk.b
        return (1 - z) ** a * (x - 1 + z) ** b / kappa_norm(a, b, x)
    return math.sin(math.pi * (1 - z)) * math.pi / (1 - math.cos(math.pi * x))


def test_lp_apply_matches_scipy():
    fs = (lambda z: 1.0, lambda z: z**3 - 0.4 * z, math.exp, math.cos)
    for walk in (kappa_walk(0, 0), kappa_walk(1, 2), kappa_walk(3, 0), trig_walk()):
        for f in fs:
            for x in (0.05, 0.3, 0.77, 1.0):
                expected = _scipy_quad(lambda z: _step_kernel(walk, x, z) * f(z), 1 - x, 1.0)
                assert abs(lp_apply(walk, f, x) - expected) < 1e-10


def test_fixed_point_integral_matches_scipy():
    for walk in (kappa_walk(0, 0), kappa_walk(2, 1), trig_walk()):
        for z in (0.1, 0.5, 0.9, 1.0):
            step = lambda x: cts_invariant(walk, x) * _step_kernel(walk, x, z)
            expected = _scipy_quad(step, 1 - z, 1.0)
            assert abs(_rp_invariant(walk, z) - expected) < 1e-9
            assert abs(expected - cts_invariant(walk, z)) < 1e-9


def test_panel_matches_adaptive_lp_apply():
    xs = [k / GRID_POINTS for k in (1, 17, 50, 77, GRID_POINTS)]
    for a, b in EXACT_AB:
        walk = kappa_walk(a, b)
        gs = jacobi_eigenfunctions(a, b, 12)
        for d in (0, 1, 5, 8, 12):
            panel = _kappa_lp_panel(a, b, gs[d], d, xs)
            for x, value in zip(xs, panel):
                adaptive = lp_apply(walk, gs[d], x)
                assert abs(value - adaptive) <= 1e-12 * max(1.0, abs(adaptive))


# --- the trigonometric walk: kappa(0, 0) in phi(x) = (1 - cos(pi x))/2 -------


def _trig_lp_powers_by_integration(dmax):
    """Oracle: coefficient lists, in C = cos(pi x), of L_P c^k for k <= dmax.
    The integral of c^k over [-1, -C] is ((-C)^(k+1) - (-1)^(k+1))/(k+1);
    it is divided exactly by the interval length 1 - C."""
    columns = []
    for k in range(dmax + 1):
        rem = [F(0)] * (k + 2)
        rem[k + 1] += F((-1) ** (k + 1), k + 1)
        rem[0] -= F((-1) ** (k + 1), k + 1)
        quot = [F(0)] * (dmax + 1)
        for i in range(k + 1, 0, -1):  # subtract quot[i-1] C^(i-1) (1 - C)
            quot[i - 1] = -rem[i]
            rem[i - 1] += rem[i]
            rem[i] = F(0)
        assert rem == [F(0)] * (k + 2)
        columns.append(quot)
    return columns


def _chebyshev_to_power(cheb):
    """Power coefficients of sum_k cheb[k] T_k, from T_{k+1} = 2c T_k - T_{k-1}."""
    size = len(cheb)
    ts = [[F(1)] + [F(0)] * (size - 1), [F(0), F(1)] + [F(0)] * (size - 2)][:size]
    while len(ts) < size:
        shifted = [F(0)] + [2 * c for c in ts[-1][:-1]]
        ts.append([s - p for s, p in zip(shifted, ts[-2])])
    return [sum(c * t[i] for c, t in zip(cheb, ts)) for i in range(size)]


def _compose_phi(g):
    """Power coefficients in c of g((1 - c)/2), exactly: g read at phi(x)
    as a polynomial in c = cos(pi x)."""
    out = [F(0)] * len(g)
    power = [F(1)]  # ((1 - c)/2)^k
    for coeff in g:
        for i, p in enumerate(power):
            out[i] += coeff * p
        power = [(p - q) / 2 for p, q in zip(power + [F(0)], [F(0)] + power)]
    return out


def test_trig_eigenfunctions_are_kappa00_in_phi():
    # G_d(c) = g_d((1 - c)/2), g_d the monic eigenfunctions of kappa(0, 0), is an
    # exact eigenvector of the trigonometric L_P on powers of c = cos(pi x), and
    # it is proportional to the monic cosine Gram-Schmidt polynomial
    columns = _trig_lp_powers_by_integration(12)
    gram, _ = _trig_gram_schmidt(13)
    for d, g in enumerate(jacobi_monic(0, 0, 12)):
        G = _compose_phi(g)
        assert len(G) == d + 1 and G[d] == F(-1, 2) ** d
        image = [sum(c * columns[k][i] for k, c in enumerate(G)) for i in range(13)]
        assert image == [F((-1) ** d, d + 1) * c for c in G] + [F(0)] * (12 - d)
        power = _chebyshev_to_power(gram[d])
        assert [c * power[d] / G[d] for c in G] == power


def test_trig_eigenfunctions_match_gram_schmidt():
    monic, norms = _trig_gram_schmidt(13)
    outs = jacobi_eigenfunctions(0, 0, 12)
    for d, (g, vec, h, out) in enumerate(zip(jacobi_monic(0, 0, 12), monic, norms, outs)):
        G = _compose_phi(g)
        power = _chebyshev_to_power(vec)
        lead = power[d] / G[d]  # the cosine expansion is lead * (g_d o phi)
        assert [lead * c for c in G] == power
        # composition with phi is an isometry, so the float scale is the
        # Gram-Schmidt one, bit for bit
        assert out.recurrence[2] == 1.0 / math.sqrt(float(h / lead**2))
        sign = 1 if lead > 0 else -1
        for x in (0.05, 0.3, 0.5, 0.77, 1.0):
            cosine = sum(float(c) * math.cos(k * math.pi * x) for k, c in enumerate(vec))
            expected = cosine / math.sqrt(float(h))
            assert abs(sign * out(_phi(x)) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_trig_panel_matches_adaptive_lp_apply():
    xs = [k / GRID_POINTS for k in (1, 17, 50, 77, GRID_POINTS)]
    walk = trig_walk()
    gs = jacobi_eigenfunctions(0, 0, 12)
    for d in (0, 1, 5, 8, 12):
        panel = _kappa_lp_panel(0, 0, gs[d], d, [_phi(x) for x in xs])
        for x, value in zip(xs, panel):
            adaptive = lp_apply(walk, lambda z: gs[d](_phi(z)), x)
            assert abs(value - adaptive) <= 1e-12 * max(1.0, abs(adaptive))
    assert max(eigen_residuals(walk, 12)) < 1e-10


def test_trig_lp_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    g = jacobi_eigenfunctions(0, 0, 8)[8]
    monic = jacobi_monic(0, 0, 8)[8]
    xs = [0.05, 0.3, 0.77, 1.0]
    with mpmath.workdps(30):
        pi = mpmath.pi

        def g_mp(z):
            u = (1 - mpmath.cos(pi * z)) / 2
            exact = sum(mpmath.mpf(c.numerator) / c.denominator * u**k
                        for k, c in enumerate(monic))
            return g.recurrence[2] * exact

        for x, value in zip(xs, _kappa_lp_panel(0, 0, g, 8, [_phi(x) for x in xs])):
            x = mpmath.mpf(x)
            integral = mpmath.quad(lambda z: mpmath.sin(pi * z) * g_mp(z), [1 - x, 1])
            expected = float(pi * integral / (1 - mpmath.cos(pi * x)))
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_fixed_point_panel_matches_scalar_and_scipy():
    grid = [k / GRID_POINTS for k in range(1, GRID_POINTS + 1)]
    for walk in [kappa_walk(a, b) for a, b in EXACT_AB] + [trig_walk()]:
        whole = _rp_invariant(walk, grid)
        for z, value in zip(grid, whole):
            assert abs(value - _rp_invariant(walk, z)) <= 1e-14 * max(1.0, abs(value))
        for z in (0.1, 0.5, 1.0):
            step = lambda x: cts_invariant(walk, x) * _step_kernel(walk, x, z)
            assert abs(_rp_invariant(walk, z) - _scipy_quad(step, 1 - z, 1.0)) < 1e-9
        assert fixed_point_residual(walk) < 1e-7


def test_convergence_table_and_budget():
    sizes = [10, 20, 40, 80]
    table = convergence_table(0, 0, (1, 2), sizes)
    assert table == [discrete_convergence(0, 0, d, sizes) for d in (1, 2)]
    with pytest.raises(OutOfRange):
        discrete_convergence(0, 0, 1, [10, CONVERGENCE_MAX_N + 1])
    with pytest.raises(OutOfRange):
        discrete_convergence(0, 0, 1, [10] * (CONVERGENCE_MAX_SIZES + 1))
    with pytest.raises(OutOfRange):
        convergence_table(0, 0, (1, 6), [10])
