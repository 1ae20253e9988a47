"""Dense exact-rational matrix helpers (desk scale, n <= ~100).

Matrices are plain lists of lists of Fractions, and every result is exact.
Each concept has one kernel (one product, one elimination, one law), and
those that dominate run on integers: a row is scaled by the lcm of its
denominators (integer_row), elimination keeps rows primitive, a law is
summed over one lcm, and the characteristic polynomial runs division-free
on the integer matrix D*A (`berkowitz`), which a caller that only compares
polynomials takes as it is.  Every division in them is exact, so no gcd is
paid per operation and Fractions are only formed once, for the result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import OutOfRange

Matrix = list  # list[list[Fraction]]
Vector = list  # list[Fraction]

_ZERO = Fraction(0)


# the largest n of an n x n table built from a weight or an eigenvalue
# sequence; time and memory grow as n^2: at the budget `matrix --gamma 1 1`
# takes 1.5 s and 148 MB peak RSS and `stationary` 1.3 s and 95 MB (2-vCPU
# Xeon VM, Python 3.11.7), and n = 10,000 would need about 15 GB
TABLE_BUDGET = 1_000


def check_budget(n: int, limit: int, what: str, name: str):
    """The one refusal of an n past one of the package's n-budgets."""
    if n > limit:
        raise OutOfRange(f"{what} needs n <= {limit}, the {name} budget, got n={n}")


def check_table(n: int):
    check_budget(n, TABLE_BUDGET, "an n x n table", "table")


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[_ZERO] * m for _ in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def top_left(a: Matrix, m: int) -> Matrix:
    return [row[:m] for row in a[:m]]


def is_lower_triangular(a: Matrix) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i + 1, len(a)))


def is_upper_triangular(a: Matrix) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i))


def kron(a: Matrix, b: Matrix) -> Matrix:
    nb, mb = len(b), len(b[0])
    out = zeros(len(a) * nb, len(a[0]) * mb)
    b_nonzero = [[(l, v) for l, v in enumerate(row) if v != 0] for row in b]
    for i, arow in enumerate(a):
        for j, aij in enumerate(arow):
            if aij == 0:
                continue
            for k, entries in enumerate(b_nonzero):
                out_row = out[i * nb + k]
                for l, v in entries:
                    out_row[j * mb + l] = aij * v
    return out


def berkowitz(b: list) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(X I - B) of an integer matrix.

    Berkowitz needs no division: the polynomial of the block B_(r+1) is
    the lower-triangular Toeplitz matrix with first column [1, -B[r][r],
    -S R, -S B_r R, ..., -S B_r^(r-1) R] times that of B_r, R the column
    above B[r][r] and S the row to its left, so it only adds and
    multiplies integers.
    """
    coeffs = [1]
    for r, row in enumerate(b):
        above = b[:r]  # map stops at len(v) = r, so these rows act as B_r
        v = [brow[r] for brow in above]
        col = [1, -row[r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, brow, v)) for brow in above]
            col.append(-sum(map(mul, row, v)))
        coeffs = [sum(map(mul, col[i::-1], coeffs)) for i in range(r + 2)]
    return coeffs


def charpoly(a: Matrix) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(X I - A): `berkowitz` of the
    integer matrix B = D A, D the lcm of all denominators, and coefficient
    k of A is c_k(B) / D^k."""
    b, d = integer_matrix(a)
    return [Fraction(c, d**k) for k, c in enumerate(berkowitz(b))]


def poly_from_roots(roots: Vector) -> list:
    """Monic coefficients [1, c1, ..., cn] of prod (X - r), in the roots'
    own arithmetic: Fractions for Fraction roots, ints for int roots."""
    coeffs = [1]
    for r in roots:
        coeffs.append(0)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] -= r * coeffs[i - 1]
    return coeffs


def integer_row(row: Vector) -> tuple[list[int], int]:
    """(d * row, d) with d the lcm of the row's denominators."""
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def integer_matrix(a: Matrix) -> tuple[list[list[int]], int]:
    """(D * A, D) with D the lcm of all denominators of A."""
    cols = len(a[0]) if a else 0
    flat, d = integer_row([x for row in a for x in row])
    return [flat[i * cols:(i + 1) * cols] for i in range(len(a))], d


def law(pairs) -> Vector:
    """The law proportional to a / b over integer pairs (a, b), b > 0, summed over one lcm."""
    common = math.lcm(*(b for _, b in pairs))
    scaled = [a * (common // b) for a, b in pairs]
    total = sum(scaled)
    return [Fraction(k, total) for k in scaled]


def primitive(row: list[int]) -> list[int]:
    """An integer row divided by its content, the gcd of its entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices.

    Fraction-free Gauss-Jordan on integer rows: a row with entry f in the
    pivot column becomes (p/g) row - (f/g) pivot_row, g = gcd(p, f), and is
    then made primitive, so the integers stay small.  No step changes the
    row space, and the RREF is unique, so dividing the pivot rows by their
    pivots at the end gives the RREF over the rationals.
    """
    m = [primitive(integer_row(row)[0]) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                g = math.gcd(p, f)
                pg, fg = p // g, f // g
                m[i] = primitive([pg * x - fg * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return out + [[_ZERO] * cols for _ in range(rows - r)], pivots


def triangular_eigenvectors(t: list, first: int = 0) -> list[list[int]]:
    """Eigenvectors d = first, ..., len(t)-1 of an integer upper-triangular
    matrix with distinct diagonal.

    Vector d is [c_0, ..., c_d] with c_d > 0, by back-substitution:
    (T[d][d] - T[i][i]) c_i = sum_{i<k<=d} T[i][k] c_k.  When c_i = s / D,
    the entries found so far, c_{i+1..d}, are scaled by D / gcd(s, D) > 0,
    which is coprime to the new entry s / gcd(s, D): the vector stays
    primitive.  The entries below i are still zero and are not touched.
    """
    out = []
    for d in range(first, len(t)):
        c = [0] * d + [1]
        for i in range(d - 1, -1, -1):
            s = sum(map(mul, t[i][i + 1:d + 1], c[i + 1:]))
            den = t[d][d] - t[i][i]
            g = math.gcd(s, den) if den > 0 else -math.gcd(s, den)
            scale = den // g
            if scale != 1:
                c[i + 1:] = [x * scale for x in c[i + 1:]]
            c[i] = s // g
        out.append(c)
    return out

