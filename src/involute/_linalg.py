"""Dense exact-rational matrix helpers (desk scale, n <= ~100).

Matrices are plain lists of lists of Fractions.  Nothing here is clever:
the whole point of the package is that every entry stays an exact rational,
so we trade speed for transparency.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SingularMatrix

Matrix = list  # list[list[Fraction]]
Vector = list  # list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[_ZERO] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n)
    for i in range(n):
        out[i][i] = _ONE
    return out


def antidiag(n: int) -> Matrix:
    """J(n): ones on the anti-diagonal, the matrix of x -> n-1-x."""
    out = zeros(n)
    for i in range(n):
        out[i][n - 1 - i] = _ONE
    return out


def copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    bt = list(zip(*b))
    out = []
    for i in range(n):
        ai = a[i]
        out.append([sum(ai[t] * bc[t] for t in range(k)) for bc in bt])
    return out


def matvec(a: Matrix, v: Vector) -> Vector:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def vecmat(v: Vector, a: Matrix) -> Vector:
    n = len(a)
    return [sum(v[i] * a[i][j] for i in range(n)) for j in range(len(a[0]))]


def trace(a: Matrix) -> Fraction:
    return sum(a[i][i] for i in range(len(a)))


def top_left(a: Matrix, m: int) -> Matrix:
    return [row[:m] for row in a[:m]]


def is_lower_triangular(a: Matrix) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i + 1, len(a)))


def is_upper_triangular(a: Matrix) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i))


def kron(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    ma, mb = len(a[0]), len(b[0])
    out = zeros(na * nb, ma * mb)
    for i in range(na):
        for j in range(ma):
            aij = a[i][j]
            if aij == 0:
                continue
            for k in range(nb):
                for l in range(mb):
                    out[i * nb + k][j * mb + l] = aij * b[k][l]
    return out


def charpoly(a: Matrix) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(X I - A), by Faddeev-LeVerrier.

    All divisions are by integers, so the computation is exact over the
    rationals.
    """
    n = len(a)
    coeffs = [_ONE]
    if n == 0:
        return coeffs
    m = copy(a)
    c = -trace(m)
    coeffs.append(c)
    for k in range(2, n + 1):
        for i in range(n):
            m[i][i] += c
        m = matmul(a, m)
        c = Fraction(-trace(m), k)
        coeffs.append(c)
    return coeffs


def poly_from_roots(roots: Vector) -> list[Fraction]:
    """Monic coefficients [1, c1, ..., cn] of prod (X - r)."""
    coeffs = [_ONE]
    for r in roots:
        coeffs.append(_ZERO)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] -= r * coeffs[i - 1]
    return coeffs


def inverse(a: Matrix) -> Matrix:
    """Exact inverse as the right half of rref([A | I]); raises SingularMatrix."""
    n = len(a)
    r, pivots = rref([row + e for row, e in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in r]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the right kernel {v : A v = 0}."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [_ZERO] * cols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def clear_denominators(v: Vector) -> Vector:
    """Scale a rational vector to coprime integers, first nonzero entry > 0."""
    nz = [x for x in v if x != 0]
    if not nz:
        return [Fraction(0)] * len(v)
    lcm = 1
    for x in nz:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [x * lcm for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x.numerator))
    ints = [x / g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints
