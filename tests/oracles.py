"""Direct readings of the definitions that the library never needs at run
time: the tests use them as oracles for the closed forms and fast paths."""

from dataclasses import dataclass
from fractions import Fraction

from involute import _linalg as la
from involute.errors import IndexOutOfDomain
from involute.exactnum import as_rational
from involute.walk import WalkMatrix
from involute.weights import Custom, domain_limit, weight_table


def weight_value(spec, y: int, x: int) -> Fraction:
    """Exact value of the weight on the interval [y, x]."""
    if y < 0 or y > x:
        raise IndexOutOfDomain(f"need 0 <= y <= x, got y={y}, x={x}")
    if x >= domain_limit(spec):
        raise IndexOutOfDomain(f"x={x} is outside the weight's domain")
    return weight_table(spec, x + 1)[x][y]


@dataclass(frozen=True)
class WeightFlags:
    atomic: bool
    star_symmetric: bool
    strictly_positive: bool


def classify_weight(spec, n: int) -> WeightFlags:
    """Decide atomic / star-symmetric / strictly positive by exhaustive check."""
    w = weight_table(spec, n)
    atomic = True
    star = True
    positive = True
    for x in range(n):
        for y in range(x + 1):
            v = w[x][y]
            if v <= 0:
                positive = False
            if v != w[y][y]:
                atomic = False
            if v != w[n - 1 - y][n - 1 - x]:
                star = False
    return WeightFlags(atomic, star, positive)


def custom_from_down_step(h_rows) -> Custom:
    """Wrap a lower-triangular down-step matrix as a custom weight table."""
    n = len(h_rows)
    table = {(y, x): as_rational(h_rows[x][y]) for x in range(n) for y in range(x + 1)}
    return Custom(n, table)


def two_step(w) -> list:
    """P squared: the down-up walk taking two involutive steps at a time."""
    rows = w.P if isinstance(w, WalkMatrix) else w
    return la.matmul(rows, rows)


def pi_inner(pi, v, w) -> Fraction:
    """<v, w> = sum_x pi_x v_x w_x."""
    return sum(p * a * b for p, a, b in zip(pi, v, w))
