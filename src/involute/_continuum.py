"""The numpy-free part of the interval walk: its input budgets and the
adaptive quadrature under the integral-definition reference.

`continuum` imports numpy at module level and re-exports what is here.  The
CLI reads the budgets when it defines the `continuum` parser, at its first
parse, so importing them from this module keeps numpy out of every command
that does not work on [0, 1].
`adaptive_quad` runs on plain floats and finds its Gauss-Legendre nodes by
Newton's method on the Legendre recurrence.  The numpy panels of `continuum`
take their nodes from the same rule; the tests check the rule against
numpy's `leggauss` and the panels against scipy and mpmath quadrature.  The
bench tracer (bench/spans.py) names a layer after the last part of a module
name, leading underscores dropped, so these functions trace as `continuum.*`
on every workload.
"""

from __future__ import annotations

import functools
import math

from .errors import QuadratureNonConvergence

CONVERGENCE_MAX_N = 400  # the tested range, not a cost limit: d + 1 <= 6 vectors cost O(n)
CONVERGENCE_MAX_SIZES = 8

QUAD_NODE_BUDGET = 2**15  # integrand evaluations before QuadratureNonConvergence
QUAD_PANEL_ORDER = 20


def _legendre(order: int, x: float) -> tuple:
    """(P_order(x), P_order'(x)) by the three-term recurrence; |x| < 1."""
    prev, cur = 1.0, x
    for k in range(2, order + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, order * (x * cur - prev) / (x * x - 1)


@functools.cache
def _gauss_legendre(order: int) -> tuple:
    """Nodes on [-1, 1] in increasing order and their weights: the roots of
    P_order by Newton's method from Tricomi's estimate, w = 2/((1-x^2) P'^2)."""
    nodes, weights = [], []
    for i in range(order):
        x = -math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(100):
            p, dp = _legendre(order, x)
            x, prev = x - p / dp, x
            if x == prev:
                break
        _, dp = _legendre(order, x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def adaptive_quad(f, lo: float, hi: float, tol: float) -> float:
    """Gauss-Legendre panels of order QUAD_PANEL_ORDER refined by bisection
    until the panel estimate stabilizes within tol; raises
    QuadratureNonConvergence after QUAD_NODE_BUDGET integrand evaluations."""
    if lo == hi:
        return 0.0
    nodes, weights = _gauss_legendre(QUAD_PANEL_ORDER)
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
