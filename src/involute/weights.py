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

The named families' closed forms live here, all read from the reduced
integer term pairs of `_ratios`.  With (r)_d the rising factorial, a family
is a pair (A, C): A = a+1, C = a+b+2 for gamma(a, b), and A = 1-a',
C = 2-a'-b' for delta(a', b').  Its walk is P[x][z] = C(x, y) D_k(y), with
y = z*, k = x+z-(n-1) and D the difference table of lambda:

    lambda_d = (A)_d / (C)_d                (`family_sequence`),
    D_k(y)   = (A)_y (C-A)_k / (C)_{y+k},
    pi_x     ∝ C(n-1, x) (A)_{x*} (C)_x     (`invariant_closed_form`).

gamma(c) is the limit C -> oo at A/C = mu = 1/(c+1): lambda_d = mu^d.
J(n), lambda = (1, ..., 1), is A = C: D_k(y) = [k = 0] and P is the flip J.

Every family walk is reversible, for every n.  As y + k = x, P without its
binomial factor, M[x][z] = D_k(y), gives phi(x) M[x][z] = (A)_{x*} (A)_{z*}
(C-A)_k with phi(u) = (A)_{u*} (C)_u, symmetric in x and z: M[x][z] /
M[z][x] = phi(z) / phi(x) is a gradient.  So phi balances M, and pi_x ∝
C(n-1, x) phi(x) balances P (the `transform` docstring); phi keeps one sign
on the domain.  `test_family_walks_from_a_and_c` checks these formulas
exactly; the converse, that each reversible P^lambda with 0 accessible is a
family walk, is only checked on a grid (`classify`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from ._linalg import check_table, law
from ._record import FrozenRecord
from .errors import IndexOutOfDomain, MalformedWeight, OutOfRange, UnsupportedFamily
from .exactnum import as_rational
from .serialize import _csv_lines, parse_rational

UNBOUNDED = math.inf


class GammaAB(FrozenRecord):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        a, b = as_rational(a), as_rational(b)
        if a <= -1 or b <= -1:
            raise OutOfRange(f"gamma(a,b) needs a, b > -1, got ({a}, {b})")
        self._freeze(a, b)


class GammaC(FrozenRecord):
    __slots__ = _fields = ("c",)

    def __init__(self, c: Fraction):
        c = as_rational(c)
        if c <= 0:
            raise OutOfRange(f"gamma(c) needs c > 0, got {c}")
        self._freeze(c)


class DeltaAB(FrozenRecord):
    __slots__ = _fields = ("a_prime", "b_prime")

    def __init__(self, a_prime: Fraction, b_prime: Fraction):
        a_prime, b_prime = as_rational(a_prime), as_rational(b_prime)
        if a_prime <= 1 or b_prime <= 1:
            raise OutOfRange(f"delta(a',b') needs a', b' > 1, got ({a_prime}, {b_prime})")
        self._freeze(a_prime, b_prime)


class Custom(FrozenRecord):
    """Dense weight table on {0,...,n-1}; missing intervals default to 0.

    Equality compares n and the table; the hash reads n alone."""

    __slots__ = _fields = ("n", "table")

    def __init__(self, n: int, table: Mapping[tuple[int, int], Fraction]):
        if n < 1:
            raise OutOfRange("custom weight needs n >= 1")
        clean = {}
        for (y, x), v in table.items():
            if not (0 <= y <= x < n):
                raise IndexOutOfDomain(f"interval ({y},{x}) outside 0 <= y <= x < {n}")
            v = as_rational(v)
            if v < 0:
                raise MalformedWeight(f"negative weight {v} at interval ({y},{x})")
            clean[(y, x)] = v
        # no entry is negative, so N_x > 0 exactly when some entry of column x is
        positive = {x for (_, x), v in clean.items() if v}
        for x in range(n):
            if x not in positive:
                raise MalformedWeight(f"column sum N_{x} is not positive")
        self._freeze(n, clean)

    def __hash__(self) -> int:
        return hash((self.n,))


WeightSpec = GammaAB | GammaC | DeltaAB | Custom


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
    """[t_0, ..., t_{length-1}] as reduced integer pairs (num, den), den > 0,
    with t_0 = 1 and t_{k+1} = t_k * p / q, (p, q) = ratio(k): the running
    product stays on integers and is reduced once per term.

    Every caller's q is positive for k < length - 1, so no sign is repaired
    and no zero tested: `_rising` and `_falling` give (k+1) q_r, gamma(c)
    gives q_c, `ac_sequence` gives q_A (p_C + k q_C), with C > 0, and
    `family_sequence`'s u / N ratio gives q_u p_N, with p_N > 0 on every n
    that `_check_n` admits: p_c + q_c > 0 for gamma(c), and a'+b'-2-k > 0
    for delta, as k <= n-2 <= ceil(a')-2 < a'+b'-2."""
    num = den = 1
    out = [(1, 1)]
    for k in range(length - 1):
        p, q = ratio(k)
        num, den = num * p, den * q
        g = math.gcd(num, den)
        num, den = num // g, den // g
        out.append((num, den))
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


def ac_sequence(big_a, big_c, n: int) -> list:
    """lambda_d = (A)_d / (C)_d for d < n, as reduced integer pairs
    (num, den): the family (A, C) of the module docstring.  A and C are ints
    or Fractions, read through their numerators and denominators, and C > 0
    keeps every term ratio (A+k) / (C+k) on a positive denominator.  That
    holds for gamma(a, b), A = a+1 and C = a+b+2, but not for delta, whose
    C+k is negative."""
    pa, qa, pc, qc = big_a.numerator, big_a.denominator, big_c.numerator, big_c.denominator
    return _terms(lambda k: ((pa + k * qa) * qc, qa * (pc + k * qc)), n)


def family_sequence(spec: WeightSpec, n: int) -> list:
    """lambda_0, ..., lambda_{n-1} of a named family walk: lambda_d = w[d, d] / N_d,
    the diagonal of the lower-triangular H = B Diag(lambda) B^-1, which is
    `ac_sequence` for gamma(a, b)."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("no closed-form eigenvalues for custom weights")
    _check_n(spec, n)
    if isinstance(spec, GammaAB):
        return [Fraction(p, q) for p, q in ac_sequence(spec.a + 1, spec.a + spec.b + 2, n)]
    u, _, _, norms = _ratios(spec)

    def ratio(k):  # of u_d / N_d, so each lambda_d is reduced once
        (pu, qu), (pn, qn) = u(k), norms(k)
        return pu * qn, qu * pn

    return [Fraction(p, q) for p, q in _terms(ratio, n)]


def _norm_pairs(spec: WeightSpec, n: int) -> list:
    """[N_0, ..., N_{n-1}] as integer pairs (num, den)."""
    if isinstance(spec, Custom):
        zero = Fraction(0)
        sums = (sum(spec.table.get((y, x), zero) for y in range(x + 1)) for x in range(n))
        return [(s.numerator, s.denominator) for s in sums]
    return _terms(_ratios(spec)[3], n)


def _check_n(spec: WeightSpec, n: int):
    """The one test that the weight is defined on n states."""
    if n < 1 or n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} is outside the weight's domain")


def down_step_table(spec: WeightSpec, n: int, entry=Fraction) -> list:
    """Rows [w[0, x] / N_x, ..., w[x, x] / N_x] for x < n: the lower
    triangle of the down-step matrix H.  Each entry is entry(num, den) of
    its unreduced integer products, den > 0, so it is reduced once, by
    entry: `Fraction` where the entries are computed with, and
    `serialize._rational_text`, which reduces the pair straight to its
    text, where they are printed.

    A named family's entry is a_y c_{x-y} f_x [C(x, y)] / (b_y d_{x-y} e_x),
    with u_y = a_y / b_y, v_k = c_k / d_k and N_x = e_x / f_x the reduced
    term pairs (`_ratios`); a custom entry p / q gives p f_x / (q e_x).

    No norm N_x vanishes on a valid input, so none is tested: N_x is
    (1+c)^x for gamma(c) and +-(C)_x / x! for the others, with C > 0 for
    gamma(a, b) and C + k < 0 for k < n-1 inside delta's domain, n <= ceil(a').
    `Custom` rejects a column sum that is not positive.  TABLE_BUDGET is
    checked first, as a custom table's norms take O(n^2)."""
    _check_n(spec, n)
    check_table(n)
    norms = _norm_pairs(spec, n)
    if isinstance(spec, Custom):
        zero = Fraction(0)
        return [[entry(w.numerator * f, w.denominator * e)
                 for w in (spec.table.get((y, x), zero) for y in range(x + 1))]
                for x, (e, f) in enumerate(norms)]
    ru, rv, pascal, _ = _ratios(spec)
    u, v = _terms(ru, n), _terms(rv, n)
    rows = []
    for x, (e, f) in enumerate(norms):
        pairs = zip(u, v[x::-1])  # (u_y, v_{x-y}) for y = 0..x
        if pascal:
            rows.append([entry(a * c * f * math.comb(x, y), b * d * e)
                         for y, ((a, b), (c, d)) in enumerate(pairs)])
        else:
            rows.append([entry(a * c * f, b * d * e) for (a, b), (c, d) in pairs])
    return rows


def invariant_closed_form(spec: WeightSpec, n: int) -> list:
    """Stationary law of a named family, as pi_x ∝ alpha_{x*} N_x: alpha_y is
    the lower-end term u_y (`_ratios`), times C(n-1, y) for gamma(c).  The
    products of reduced integer term pairs are normalised by `_linalg.law`;
    their Theta(n)-bit numerators need n <= TABLE_BUDGET, checked after the
    domain, as for a table."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("closed-form invariant only for named families")
    _check_n(spec, n)
    check_table(n)
    ratio, _, pascal, _ = _ratios(spec)
    terms = [(a * e, b * f)
             for (a, b), (e, f) in zip(reversed(_terms(ratio, n)), _norm_pairs(spec, n))]
    if pascal:
        terms = [(a * math.comb(n - 1, x), b) for x, (a, b) in enumerate(terms)]
    return law(terms)


def custom_from_csv(text: str) -> Custom:
    """Load a custom weight from CSV rows 'y,x,p/q', less a header
    (`serialize._csv_lines`); any other line that does not parse is refused."""
    table: dict[tuple[int, int], Fraction] = {}
    max_x = -1
    for line, parts in _csv_lines(text):
        if len(parts) != 3:
            raise MalformedWeight(f"expected 'y,x,p/q', got {line!r}")
        try:
            y, x = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedWeight(f"bad row {line!r}") from None
        if (y, x) in table:
            raise MalformedWeight(f"duplicate row for (y, x) = ({y}, {x}): {line!r}")
        table[(y, x)] = parse_rational(parts[2])
        max_x = max(max_x, x)
    return Custom(max_x + 1, table)


def spec_label(spec: WeightSpec) -> str:
    if isinstance(spec, GammaAB):
        return f"gamma({spec.a},{spec.b})"
    if isinstance(spec, GammaC):
        return f"gamma({spec.c})"
    if isinstance(spec, DeltaAB):
        return f"delta({spec.a_prime},{spec.b_prime})"
    return f"custom(n={spec.n})"

