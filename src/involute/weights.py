"""Interval weights on finite total orders and their named families.

A weight assigns a non-negative rational to every interval [y, x] of
{0, ..., n-1}, with positive column sums N_x = sum_{y <= x} w[y, x].  The
three named families are

    gamma(a, b)[y, x] = binom(y+a, y) * binom(b+x-y, x-y)      (a, b > -1)
    gamma(c)[y, x]    = binom(x, y) * c^(x-y)                  (c > 0)
    delta(a', b')[y, x] = binom(a'-1, y) * binom(b'-1, x-y)    (a', b' > 1)

gamma(a, b) and gamma(c) are strictly positive on every n; delta lives on a
bounded domain, given in closed form by domain_limit.  A weight is atomic
when it only depends on the lower endpoint and star-symmetric when it is
invariant under the order anti-involution [y, x] -> [x*, y*], x* = n-1-x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

from .errors import IndexOutOfDomain, MalformedWeight, OutOfRange
from .exactnum import as_rational
from .serialize import parse_rational

UNBOUNDED = math.inf


@dataclass(frozen=True)
class GammaAB:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        if self.a <= -1 or self.b <= -1:
            raise OutOfRange(f"gamma(a,b) needs a, b > -1, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class GammaC:
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", as_rational(self.c))
        if self.c <= 0:
            raise OutOfRange(f"gamma(c) needs c > 0, got {self.c}")


@dataclass(frozen=True)
class DeltaAB:
    a_prime: Fraction
    b_prime: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a_prime", as_rational(self.a_prime))
        object.__setattr__(self, "b_prime", as_rational(self.b_prime))
        if self.a_prime <= 1 or self.b_prime <= 1:
            raise OutOfRange(
                f"delta(a',b') needs a', b' > 1, got ({self.a_prime}, {self.b_prime})"
            )


@dataclass(frozen=True)
class Custom:
    """Dense weight table on {0,...,n-1}; missing intervals default to 0."""

    n: int
    table: Mapping[tuple[int, int], Fraction] = field(hash=False)

    def __post_init__(self):
        if self.n < 1:
            raise OutOfRange("custom weight needs n >= 1")
        clean = {}
        for (y, x), v in self.table.items():
            if not (0 <= y <= x < self.n):
                raise IndexOutOfDomain(f"interval ({y},{x}) outside 0 <= y <= x < {self.n}")
            v = as_rational(v)
            if v < 0:
                raise MalformedWeight(f"negative weight {v} at interval ({y},{x})")
            clean[(y, x)] = v
        object.__setattr__(self, "table", clean)
        for x in range(self.n):
            if sum(clean.get((y, x), Fraction(0)) for y in range(x + 1)) <= 0:
                raise MalformedWeight(f"column sum N_{x} is not positive")


WeightSpec = Union[GammaAB, GammaC, DeltaAB, Custom]


@dataclass(frozen=True)
class FactorizationResult:
    """Atomic part alpha, star-symmetric part beta, with alpha_y*beta[y,x]=w[y,x]."""

    alpha: list
    beta: dict
    valid: bool


def domain_limit(spec: WeightSpec):
    """Largest n the weight is defined on, or UNBOUNDED.

    delta is binom(a'-1, y) * binom(b'-1, x-y).  For a non-integer r > 0,
    binom(r, k) > 0 exactly when k <= ceil r; for an integer r >= 0 it is
    >= 0 for every k.  So delta has a positive diagonal for n <= ceil a'
    and, for non-integer b', is strictly positive for n <= ceil b'; for
    integer b' non-negativity plus the positive diagonal is enough.
    """
    if isinstance(spec, (GammaAB, GammaC)):
        return UNBOUNDED
    if isinstance(spec, Custom):
        return spec.n
    if spec.b_prime.denominator == 1:
        return math.ceil(spec.a_prime)
    return min(math.ceil(spec.a_prime), math.ceil(spec.b_prime))


def _terms(ratio, length: int) -> list:
    """[t_0, ..., t_{length-1}] with t_0 = 1 and t_{k+1} = t_k * p / q, (p, q) = ratio(k);
    the running products stay integers, so each term is reduced only once."""
    num = den = 1
    out = [Fraction(1)]
    for k in range(length - 1):
        p, q = ratio(k)
        num, den = num * p, den * q
        out.append(Fraction(num, den))
    return out[:length]


def _rising(r):
    """Term ratio (r+k+1)/(k+1) of binom(r+k, k)."""
    p, q = r.numerator, r.denominator
    return lambda k: (p + (k + 1) * q, (k + 1) * q)


def _falling(r):
    """Term ratio (r-k)/(k+1) of binom(r, k)."""
    p, q = r.numerator, r.denominator
    return lambda k: (p - k * q, (k + 1) * q)


def _ratios(spec: WeightSpec):
    """Term ratios of a named family's 1-D sequences (u, v, pascal, N), each
    starting at 1: w[y, x] = u[y] * v[x-y], times comb(x, y) when pascal is
    set, and N_x is the column sum."""
    if isinstance(spec, GammaAB):
        a, b = spec.a, spec.b
        return _rising(a), _rising(b), False, _rising(a + b + 1)
    if isinstance(spec, GammaC):
        p, q = spec.c.numerator, spec.c.denominator
        return (lambda k: (1, 1)), (lambda k: (p, q)), True, (lambda k: (p + q, q))
    ap, bp = spec.a_prime - 1, spec.b_prime - 1
    return _falling(ap), _falling(bp), False, _falling(ap + bp)


def down_step_diagonal(spec: WeightSpec, n: int) -> list:
    """lambda_d = H[d][d] = w[d, d] / N_d for d < n, for a named family: the
    diagonal of the lower-triangular H = B Diag(lambda) B^-1.  It does not
    depend on n and is defined past the domain while N_d != 0."""
    u, _, _, norms = _ratios(spec)

    def ratio(k):  # of u_d / N_d, so each lambda_d is reduced once
        (pu, qu), (pn, qn) = u(k), norms(k)
        return pu * qn, qu * pn

    return _terms(ratio, n)


def atomic_part(spec: WeightSpec, n: int) -> list:
    """alpha_y for y < n, with w[y, x] = alpha_y * beta[y, x] and beta
    star-symmetric on n states: u[y] of `_ratios`, times C(n-1, y) for the
    Pascal-type gamma(c), as C(x, y) C(n-1, x) = C(n-1, y) C(n-1-y, x-y)."""
    ratio, _, pascal, _ = _ratios(spec)
    u = _terms(ratio, n)
    return [uy * math.comb(n - 1, y) for y, uy in enumerate(u)] if pascal else u


def weight_table(spec: WeightSpec, n: int) -> list:
    """Rows [w[0, x], ..., w[x, x]] for x < n, in O(n^2) exact operations."""
    if n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} exceeds the weight's domain")
    if isinstance(spec, Custom):
        return [[spec.table.get((y, x), Fraction(0)) for y in range(x + 1)] for x in range(n)]
    ru, rv, pascal, _ = _ratios(spec)
    u, v = _terms(ru, n), _terms(rv, n)
    if pascal:
        return [[u[y] * v[x - y] * math.comb(x, y) for y in range(x + 1)] for x in range(n)]
    return [[u[y] * v[x - y] for y in range(x + 1)] for x in range(n)]


def norm(spec: WeightSpec, x: int) -> Fraction:
    """Column sum N_x = sum_{y <= x} weight[y, x], by closed form when named."""
    if x < 0 or x >= domain_limit(spec):
        raise IndexOutOfDomain(f"x={x} is outside the weight's domain")
    return norm_table(spec, x + 1)[x]


def norm_table(spec: WeightSpec, n: int) -> list:
    """[N_0, ..., N_{n-1}], by the closed forms' term ratios when named."""
    if n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} exceeds the weight's domain")
    if isinstance(spec, Custom):
        return [sum(row) for row in weight_table(spec, n)]
    return _terms(_ratios(spec)[3], n)


def factorize(spec: WeightSpec, n: int, pi) -> FactorizationResult:
    """Split the weight into an atomic part alpha and a candidate beta.

    alpha_y is proportional to pi_{y*} / N_{y*}, the unique atomic part that
    can work when the walk is reversible with respect to pi; the scalar gauge
    is fixed by alpha_0 = weight[0, 0].  valid reports whether beta = w/alpha
    came out star-symmetric, which happens exactly when the walk is
    reversible with respect to pi.
    """
    w = weight_table(spec, n)
    pi = [as_rational(p) for p in pi]
    if len(pi) != n or any(p <= 0 for p in pi):
        raise OutOfRange("pi must be a strictly positive vector of length n")
    norms = norm_table(spec, n)
    if any(nx == 0 for nx in norms):
        raise MalformedWeight("a column sum N_x vanishes")
    alpha = [pi[n - 1 - y] / norms[n - 1 - y] for y in range(n)]
    scale = w[0][0] / alpha[0]
    alpha = [a * scale for a in alpha]
    beta = {}
    for x in range(n):
        for y in range(x + 1):
            beta[(y, x)] = w[x][y] / alpha[y]
    valid = all(
        beta[(y, x)] == beta[(n - 1 - x, n - 1 - y)] for x in range(n) for y in range(x + 1)
    )
    return FactorizationResult(alpha, beta, valid)


def custom_from_csv(text: str, n: int | None = None) -> Custom:
    """Load a custom weight from CSV rows 'y,x,p/q' (header line tolerated)."""
    table: dict[tuple[int, int], Fraction] = {}
    max_x = -1
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise MalformedWeight(f"expected 'y,x,p/q', got {line!r}")
        try:
            y, x = int(parts[0]), int(parts[1])
        except ValueError:
            if table:
                raise MalformedWeight(f"bad row {line!r}")
            continue  # header
        if (y, x) in table:
            raise MalformedWeight(f"duplicate row for (y, x) = ({y}, {x}): {line!r}")
        table[(y, x)] = parse_rational(parts[2])
        max_x = max(max_x, x)
    if n is None:
        n = max_x + 1
    return Custom(n, table)


def spec_label(spec: WeightSpec) -> str:
    if isinstance(spec, GammaAB):
        return f"gamma({spec.a},{spec.b})"
    if isinstance(spec, GammaC):
        return f"gamma({spec.c})"
    if isinstance(spec, DeltaAB):
        return f"delta({spec.a_prime},{spec.b_prime})"
    return f"custom(n={spec.n})"

