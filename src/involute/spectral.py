"""Closed-form spectra and eigenvectors of the named family walks.

The signed eigenvalue sequence of P is (-1)^d lambda_d with

    gamma(a, b):   lambda_d = binom(a+d, d) / binom(a+b+d+1, d)
    gamma(c):      lambda_d = 1 / (c+1)^d
    delta(a', b'): lambda_d = binom(a'-1, d) / binom(a'+b'-2, d)

Right eigenvectors of P(gamma(a, b)) are the Gram-Schmidt orthogonalization
of the Pascal columns v(0), ..., v(n-1) under the stationary inner product
<v, w> = sum_x pi_x v_x w_x; they are kept as integer-cleared rational
vectors, orthogonal but deliberately not normalized.  pi_x v_x gives the
left eigenvector for the same eigenvalue, and the final left eigenvector is
the alternating Pascal row (-1)^x binom(n-1, x) independently of a and b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import _linalg as la
from .errors import IndexOutOfDomain, InvoluteError, UnsupportedFamily
from .exactnum import binom
from .walk import Distribution, invariant_closed_form, transition_matrix
from .weights import Custom, DeltaAB, GammaAB, GammaC, WeightSpec, domain_limit


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
    """Unsigned eigenvalue lambda_d of the down-step matrix H."""
    if isinstance(spec, GammaAB):
        return binom(spec.a + d, d) / binom(spec.a + spec.b + d + 1, d)
    if isinstance(spec, GammaC):
        return 1 / (spec.c + 1) ** d
    if isinstance(spec, DeltaAB):
        return binom(spec.a_prime - 1, d) / binom(spec.a_prime + spec.b_prime - 2, d)
    raise UnsupportedFamily("no closed-form eigenvalues for custom weights")


def eigenvalues_closed_form(spec: WeightSpec, n: int) -> list:
    """Signed sequence ((-1)^d lambda_d) of the transition matrix P."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("no closed-form eigenvalues for custom weights")
    if n < 1 or n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} is outside the weight's domain")
    return [(-1) ** d * family_lambda(spec, d) for d in range(n)]


def pi_inner(pi, v, w) -> Fraction:
    return sum(p * a * b for p, a, b in zip(pi, v, w))


def right_eigenvectors(spec: WeightSpec, n: int, dmax: int | None = None) -> EigenSystem:
    """pi-weighted Gram-Schmidt of the Pascal columns, verified exactly.

    Only gamma(a, b) walks carry the orthogonality theory used here.  The
    orthogonalization runs on integers: with pi scaled to integers, each
    step v <- <w,w> v - <v,w> w followed by removing the content is a
    positive multiple of the rational step, so clearing denominators gives
    the same vectors.  Each output vector is checked to be an exact
    eigenvector of P, on the integer rows of P, before return.
    """
    if not isinstance(spec, GammaAB):
        raise UnsupportedFamily("right eigenvector theory requires gamma(a, b)")
    if n < 1:
        raise IndexOutOfDomain("n must be >= 1")
    top = n if dmax is None else min(dmax + 1, n)
    pi = invariant_closed_form(spec, n)
    p_int, p_den = zip(*(la.integer_row(row) for row in transition_matrix(spec, n).P))
    values = eigenvalues_closed_form(spec, n)[:top]
    pi_int = la.integer_row(pi.weights)[0]
    rights: list[list] = []
    cache: list[tuple] = []  # (w, pi * w, <w, w>) for each stored w
    for d in range(top):
        v = [math.comb(x, d) for x in range(n)]
        for w, pw, ww in cache:
            vw = sum(map(mul, v, pw))
            v = la.primitive([ww * a - vw * b for a, b in zip(v, w)])
        if next(x for x in v if x) < 0:
            v = [-x for x in v]
        num, den = values[d].numerator, values[d].denominator
        pv = la.matvec(p_int, v)
        if any(den * s != num * dx * vx for s, dx, vx in zip(pv, p_den, v)):
            raise InvoluteError(f"Gram-Schmidt vector d={d} is not an eigenvector of P")
        pw = [p * x for p, x in zip(pi_int, v)]
        cache.append((v, pw, sum(map(mul, pw, v))))
        rights.append([Fraction(x) for x in v])
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


def final_left_eigenvalue(spec: GammaAB, n: int) -> Fraction:
    """Eigenvalue of the alternating Pascal row under any gamma(a, b) walk."""
    a, b = spec.a, spec.b
    return (-1) ** (n - 1) * binom(n + a - 1, n - 1) / binom(n + a + b, n - 1)


@dataclass
class MixingReport:
    second_abs_eigenvalue: Fraction
    empirical_rate: float


def mixing_report(spec: WeightSpec, n: int, t_max: int = 40, x0: int = 0) -> MixingReport:
    """Fit the geometric decay of ||P^t[x0]/pi - 1||_inf from exact powers.

    Matrix powers stay rational; floats only enter when taking the norm.
    The fitted rate is the least-squares slope of log-norm against t over
    the second half of the window, where the second eigenvalue dominates.
    """
    walk = transition_matrix(spec, n)
    pi = invariant_closed_form(spec, n)
    power = walk.P
    norms = []
    for _ in range(t_max):
        row = power[x0]
        norms.append(float(max(abs(row[z] / pi[z] - 1) for z in range(n))))
        power = la.matmul(power, walk.P)
    lo = t_max // 2
    pts = [(t + 1, math.log(v)) for t, v in enumerate(norms) if v > 0 and t + 1 > lo]
    tbar = sum(t for t, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    slope = sum((t - tbar) * (y - ybar) for t, y in pts) / sum((t - tbar) ** 2 for t, _ in pts)
    return MixingReport(family_lambda(spec, 1), math.exp(slope))
