"""Closed-form spectra and eigenvectors of the named family walks.

The signed eigenvalues of P = H J are (-1)^d lambda_d, with lambda_d =
w[d, d] / N_d the diagonal of H (`weights.down_step_diagonal`):

    gamma(a, b):   lambda_d = binom(a+d, d) / binom(a+b+d+1, d)
    gamma(c):      lambda_d = 1 / (c+1)^d
    delta(a', b'): lambda_d = binom(a'-1, d) / binom(a'+b'-2, d)

Right eigenvectors of every family walk come from back-substitution in the
Pascal basis (`right_eigenvectors`): the Gram-Schmidt vectors of the Pascal
columns under <v, w> = sum_x pi_x v_x w_x, integer-cleared, orthogonal but
deliberately not normalized.  pi_x v_x gives the left eigenvector for the
same eigenvalue, and the final left eigenvector is the alternating Pascal
row (-1)^x binom(n-1, x), up to sign the last row of B^-1, for the last eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import _linalg as la
from .errors import IndexOutOfDomain, OutOfRange, UnsupportedFamily
from .exactnum import binom
from .walk import Distribution, invariant_closed_form, transition_matrix
from .weights import Custom, WeightSpec, domain_limit, down_step_diagonal


@dataclass
class EigenSystem:
    n: int
    eigenvalues: list  # signed, index d
    right_vectors: list  # integer-cleared rationals, pairwise pi-orthogonal
    left_vectors: list
    pi: Distribution

    def to_dict(self) -> dict:
        from .serialize import format_rational, format_vector

        return {
            "n": self.n,
            "eigenvalues": [format_rational(v) for v in self.eigenvalues],
            "right_vectors": [format_vector(v) for v in self.right_vectors],
            "left_vectors": [format_vector(v) for v in self.left_vectors],
            "pi": format_vector(self.pi.weights),
        }


def family_lambda(spec: WeightSpec, d: int) -> Fraction:
    """Unsigned eigenvalue lambda_d of the down-step matrix H: its entry H[d][d]."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("no closed-form eigenvalues for custom weights")
    if d < 0:
        raise OutOfRange(f"lambda_d needs d >= 0, got {d}")
    return down_step_diagonal(spec, d + 1)[d]


def eigenvalues_closed_form(spec: WeightSpec, n: int) -> list:
    """Signed sequence ((-1)^d lambda_d) of the transition matrix P."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("no closed-form eigenvalues for custom weights")
    if n < 1 or n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} is outside the weight's domain")
    return [(-1) ** d * lam for d, lam in enumerate(down_step_diagonal(spec, n))]


def right_eigenvectors(spec: WeightSpec, n: int, dmax: int | None = None) -> EigenSystem:
    """Right eigenvectors of a family walk P, by back-substitution.

    With B the Pascal matrix, P = H J and H = B Diag(lambda) B^-1, entry
    [i][k] of B^-1 P B is (-1)^i lambda_i C(n-1-i, k-i), the forward
    differences at x = 0 of C(n-1-x, k).  It is upper triangular, and every
    named family has distinct signed lambda_d within its domain, so
    eigenvector d is B times the eigenvector of its top (d+1) x (d+1) block,
    scaled to coprime integers with the first nonzero entry > 0.
    """
    if n < 1:
        raise IndexOutOfDomain("n must be >= 1")
    if dmax is not None and dmax < 0:
        raise OutOfRange(f"eigenvectors need dmax >= 0, got {dmax}")
    top = n if dmax is None else min(dmax + 1, n)
    values = eigenvalues_closed_form(spec, top)  # lambda_d does not depend on n
    scaled = la.integer_row(values)[0]
    t = [[scaled[i] * math.comb(n - 1 - i, k - i) if k >= i else 0 for k in range(top)]
         for i in range(top)]
    rights = []
    for c in la.triangular_eigenvectors(t):
        # v = B c by prefix sums, f_k(x) = c_k + sum_{y<x} f_(k+1)(y) for k = d..0;
        # B is unimodular, so v is primitive because c is.
        v = [c[-1]] * n
        for ck in reversed(c[:-1]):
            v = [ck + s for s in accumulate(v[:-1], initial=0)]
        sign = -1 if next(x for x in v if x) < 0 else 1
        rights.append([Fraction(sign * x) for x in v])
    pi = invariant_closed_form(spec, n)
    lefts = [left_from_right(pi, v) for v in rights]
    return EigenSystem(n, values, rights, lefts, pi)


def left_from_right(pi, v) -> list:
    """u_x = pi_x v_x turns a right eigenvector into a left one."""
    return la.clear_denominators([p * x for p, x in zip(pi, v)])


def final_left_eigenvector(n: int) -> list:
    """The alternating Pascal row (-1)^x binom(n-1, x)."""
    if n < 1:
        raise IndexOutOfDomain("n must be >= 1")
    return [(-1) ** x * binom(n - 1, x) for x in range(n)]


def final_left_eigenvalue(spec: WeightSpec, n: int) -> Fraction:
    """Eigenvalue of the alternating Pascal row under any family walk."""
    return eigenvalues_closed_form(spec, n)[n - 1]


@dataclass
class MixingReport:
    second_abs_eigenvalue: Fraction
    empirical_rate: float


def mixing_report(spec: WeightSpec, n: int, t_max: int = 40, x0: int = 0) -> MixingReport:
    """Fit the geometric decay of ||P^t[x0]/pi - 1||_inf from exact rows.

    Row x0 of P^t is stepped by vecmat and stays rational; floats only enter at the norm.
    The fitted rate is the least-squares slope of log-norm against t over
    the second half of the window, where the second eigenvalue dominates.
    """
    walk = transition_matrix(spec, n)
    pi = invariant_closed_form(spec, n)
    row = walk.P[x0]
    norms = []
    for _ in range(t_max):
        norms.append(float(max(abs(row[z] / pi[z] - 1) for z in range(n))))
        row = la.vecmat(row, walk.P)
    lo = t_max // 2
    pts = [(t + 1, math.log(v)) for t, v in enumerate(norms) if v > 0 and t + 1 > lo]
    tbar = sum(t for t, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    slope = sum((t - tbar) * (y - ybar) for t, y in pts) / sum((t - tbar) ** 2 for t, _ in pts)
    return MixingReport(family_lambda(spec, 1), math.exp(slope))
