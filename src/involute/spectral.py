"""Spectra and eigenvectors of every walk built from an eigenvalue sequence.

A sequence lambda_0 = 1, lambda_1, ..., lambda_{n-1} gives the down-step
matrix H = B Diag(lambda) B^-1, B the Pascal matrix, and the walk P = H J.
The signed eigenvalues of P are (-1)^d lambda_d, the anti-diagonal
eigenvalue property.  This module works on the sequence alone: a named
family's sequence and closed forms live in `weights` (`family_sequence`),
and the code that steps P, `mixing_report` among it, in `walk`.

For every sequence, reversible walk or not, T = B^-1 P B is upper
triangular with T[i][k] = (-1)^i lambda_i C(n-1-i, k-i).  When the signed
eigenvalues are distinct, back-substitution on an integer-scaled triangle
(`_linalg.triangular_eigenvectors`) gives every eigenvector, and each of
the two calls takes the whole sequence and dmax and builds only the
triangle it solves:

- right vector d is B c, c the eigenvector of T for T[d][d]
  (`right_eigenvectors`, on the top dmax + 1 rows of T);
- left vector d is w B^-1, w the eigenvector of T^T, found by the same
  back-substitution on S, T^T read in reversed index order (`left_side`,
  on the whole of S);
- pi is the left vector for mu_0 = 1, normalized to sum 1: a list of
  Fractions, the same kind of law `walk.stationary` returns.

A caller asks for the side it prints, and the eigenvalues of the vectors
are `signed_eigenvalues` of the same prefix of lam.

Each vector is a list of coprime ints with first nonzero entry > 0.  For
a reversible walk the right vectors are pi-orthogonal and u_x = pi_x v_x up
to scale.  A repeated signed eigenvalue, as in lambda = (1, 0, 0), is
refused with RepeatedEigenvalue before any solve: back-substitution would
divide by zero.  The final left eigenvector of every walk is the
alternating Pascal row (-1)^x binom(n-1, x), up to sign the last row of
B^-1, for the last eigenvalue.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

from . import _linalg as la
from .errors import IndexOutOfDomain, OutOfRange, RepeatedEigenvalue
from .exactnum import binom


def signed_eigenvalues(lam) -> list:
    """The eigenvalues ((-1)^d lambda_d) of P from the sequence of H."""
    return [(-1) ** d * v for d, v in enumerate(lam)]


def _signed_row(lam, size: int) -> list:
    """The positive integer multiple of the signed eigenvalues (-1)^d lambda_d,
    d < size, for the rows of a size x size triangle; raises OutOfRange past
    the table budget and RepeatedEigenvalue if any signed value of lam repeats."""
    la.check_table(size)
    first: dict = {}
    for d, v in enumerate(lam):
        key = (-v.numerator if d % 2 else v.numerator, v.denominator)  # the reduced signed value
        if first.setdefault(key, d) != d:
            raise RepeatedEigenvalue(
                f"signed eigenvalue {(-1) ** d * v} repeats at d={first[key]} and d'={d}; "
                "eigenvectors need distinct signed eigenvalues"
            )
    return la.integer_row(signed_eigenvalues(lam[:size]))[0]


def _oriented(v: list) -> list:
    """A primitive integer vector, negated if need be so that its first
    nonzero entry is > 0."""
    if next((x for x in v if x), 0) < 0:
        return [-x for x in v]
    return v


def _top(lam, dmax: int | None) -> int:
    """The number of eigenvectors d <= dmax of the walk of lam."""
    n = len(lam)
    if n < 1:
        raise IndexOutOfDomain("need at least one eigenvalue")
    if dmax is not None and dmax < 0:
        raise OutOfRange(f"eigenvectors need dmax >= 0, got {dmax}")
    return n if dmax is None else min(dmax + 1, n)


def right_eigenvectors(lam, dmax: int | None = None) -> list:
    """Right eigenvectors v_d, d <= dmax, of the n-state walk of lam,
    n = len(lam), each a primitive list of ints: P v_d = (-1)^d lambda_d v_d.

    T is upper triangular, so eigenvector d of T lives on its top
    (d+1) x (d+1) block; only the top k x k block, k = min(dmax + 1, n),
    is built, and the table budget bounds k, not n.  lam needs distinct
    signed values, every one of them checked, not a stochastic sequence:
    integer sequences are solved too.
    """
    top = _top(lam, dmax)
    n = len(lam)
    scaled = _signed_row(lam, top)
    t = [[0] * i + [scaled[i] * math.comb(n - 1 - i, j) for j in range(top - i)]
         for i in range(top)]
    rights = []
    for c in la.triangular_eigenvectors(t):
        # v = B c by prefix sums, f_k(x) = c_k + sum_{y<x} f_(k+1)(y) for k = d..0;
        # B is unimodular, so v is primitive because c is.
        v = [c[-1]] * n
        for ck in reversed(c[:-1]):
            v = list(accumulate(v[:-1], initial=ck))
        rights.append(_oriented(v))
    return rights


def left_side(lam, dmax: int | None = None) -> tuple:
    """(left vectors for d <= dmax, pi) of the walk of lam, on the terms of
    `right_eigenvectors`: each u is a primitive list of ints with
    u P = (-1)^d lambda_d u, and pi is the stationary law as Fractions
    summing to 1.

    S[i][k] = T[n-1-k][n-1-i] = sigma_(n-1-k) C(k, i) for k >= i, sigma the
    scaled signed eigenvalues, is T^T in reversed index order and upper
    triangular.  Its eigenvector for S[j][j] = T[d][d], j = n-1-d, read
    backwards is the w with w T = T[d][d] w, zero below index d.  Vector j
    reads rows 0..j of S, so the whole n x n triangle is built for any dmax.
    The left vector u = w B^-1 is primitive because B^-1 is unimodular.
    With distinct signed eigenvalues 1 is a simple eigenvalue, so pi, u_0
    over its sum, is the one stationary law.
    """
    top = _top(lam, dmax)
    n = len(lam)
    scaled = _signed_row(lam, n)
    s = [[0] * i + [scaled[n - 1 - k] * math.comb(k, i) for k in range(i, n)]
         for i in range(n)]
    backwards = la.triangular_eigenvectors(s, n - top)
    # u = w B^-1 means sum_y u_y t^y = W(t - 1), W(t) = sum_x w_x t^x, so
    # U(-t) is W(-t) shifted by +1: on coefficients listed from the top, that
    # shift is prefix sums of the first m for m = n, ..., 2.  c lists w from
    # the top, c[k] = w_(n-1-k), and sign turns W into W(-t) and back.
    sign = [(-1) ** (n - 1 - k) for k in range(n)]
    lefts = []
    for c in reversed(backwards):
        r = list(map(mul, sign, c + [0] * (n - len(c))))
        for m in range(n, 1, -1):
            r[:m] = accumulate(r[:m])
        lefts.append(_oriented(list(map(mul, sign, r))[::-1]))
    return lefts, la.law([(x, 1) for x in lefts[0]])


def final_left_eigenvector(n: int) -> list:
    """The alternating Pascal row (-1)^x binom(n-1, x)."""
    if n < 1:
        raise IndexOutOfDomain("n must be >= 1")
    return [(-1) ** x * binom(n - 1, x) for x in range(n)]
