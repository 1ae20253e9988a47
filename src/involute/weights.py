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

Each named family is stated once, by the sequences of its closed forms.
With (r)_d the rising factorial, gamma(a, b) and delta(a', b') are a pair
(A, C): A = a+1, C = a+b+2 for gamma(a, b), and A = 1-a', C = 2-a'-b' for
delta(a', b').  gamma(c) is mu = 1/(c+1), the limit C -> oo at A/C = mu.
Their walk is P[x][z] = C(x, y) D_k(y), with y = z*, k = x+z-(n-1) and D
the difference table of lambda:

    lambda_d = (A)_d / (C)_d, or mu^d       (`family_sequence`),
    D_k(y)   = (A)_y (C-A)_k / (C)_{y+k},
    pi_x     ∝ C(n-1, x) (A)_{x*} (C)_x,
               or C(n-1, x) (1+c)^x         (`invariant_closed_form`),

each read as a reduced integer pair.  A rising factorial (r)_k and a power
of mu are products of factors prime to their denominators (`_rising`,
`_mu_powers`), so they pay no gcd; only lambda's quotient (A)_d / (C)_d is
reduced, once per term (`ac_sequence`).  J(n), lambda = (1, ..., 1), is
A = C: D_k(y) = [k = 0] and P is the flip J.

A family walk is the binomial transform of its diagonal lambda.  For
gamma(a, b), w[y, x] = (A)_y (C-A)_k / (y! k!) with k = x-y, and N_x =
(C)_x / x! by Vandermonde's sum; for delta every factor takes a sign,
(-1)^y (-1)^k over (-1)^x, which cancel.  So H[x][y] = w[y, x] / N_x =
C(x, y) (A)_y (C-A)_k / (C)_x = C(x, y) D_k(y), as D_0 = lambda and
D_k(y) - D_k(y+1) = D_k(y) (1 - (A+y) / (C+y+k)) = D_{k+1}(y).  For
gamma(c), H[x][y] = C(x, y) c^k / (1+c)^x = C(x, y) mu^y (1-mu)^k, the
same with D_k(y) = mu^y (1-mu)^k.  So this module builds no named table:
a family's walk is built from its eigenvalue sequence as every lambda walk
is (`walk.transition_matrix`), and `down_step_table` builds custom tables
alone.  `test_construction_matches_division_route` checks the transform
against the weight definitions.

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
from itertools import accumulate, repeat
from operator import mul

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


def _rising(r, n: int) -> list:
    """(r)_k for k < n, n >= 1, as pairs (prod_{i<k} (p + i q), q^k), r =
    p/q.  Each factor p + i q is p modulo q, so prime to q: every pair is
    reduced, with den > 0, and no gcd is paid."""
    p, q = r.numerator, r.denominator
    return list(zip(accumulate(range(p, p + (n - 1) * q, q), mul, initial=1),
                    accumulate(repeat(q, n - 1), mul, initial=1)))


def _mu_powers(c, n: int) -> list:
    """([q^d], [(p+q)^d]) for d < n, n >= 1, c = p/q: the numerators and
    denominators of mu^d, mu = q/(p+q), prime to each other as q and p+q
    are, so no gcd is paid."""
    p, q = c.numerator, c.denominator
    return [list(accumulate(repeat(b, n - 1), mul, initial=1)) for b in (q, p + q)]


def _ac(spec: WeightSpec) -> tuple:
    """(A, C) of gamma(a, b) or delta(a', b'), the module docstring's pair."""
    if isinstance(spec, GammaAB):
        return spec.a + 1, spec.a + spec.b + 2
    return 1 - spec.a_prime, 2 - spec.a_prime - spec.b_prime


def ac_sequence(big_a, big_c, n: int) -> list:
    """lambda_d = (A)_d / (C)_d for d < n, as reduced integer pairs
    (num, den), den > 0: the family (A, C) of the module docstring.  A and
    C are ints or Fractions, read through their numerators and denominators.

    The one running product of the module that needs a gcd: lambda_{k+1} =
    lambda_k (A+k) / (C+k), reduced once per term.  Its denominators stay
    positive by one sign s of C for every k <= n-2: C > 0 for gamma(a, b),
    while inside delta's domain, n <= ceil(a'), both A+k = 1-a'+k < 0 and
    C+k < A+k are negative, so s = -1 flips both."""
    pa, qa, pc, qc = big_a.numerator, big_a.denominator, big_c.numerator, big_c.denominator
    s = 1 if big_c > 0 else -1

    def times(term, k):
        num, den = term[0] * (s * (pa + k * qa) * qc), term[1] * (s * qa * (pc + k * qc))
        g = math.gcd(num, den)
        return num // g, den // g

    return list(accumulate(range(n - 1), times, initial=(1, 1)))[:n]


def family_sequence(spec: WeightSpec, n: int, entry=Fraction) -> list:
    """lambda_0, ..., lambda_{n-1} of a named family walk, each made by
    entry(num, den) of its reduced integer pair: `ac_sequence`, or mu^d for
    gamma(c) (`_mu_powers`).  This is the diagonal w[d, d] / N_d of H, and
    the walk is its binomial transform (the module docstring)."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("no closed-form eigenvalues for custom weights")
    _check_n(spec, n)
    if isinstance(spec, GammaC):
        pairs = zip(*_mu_powers(spec.c, n))
    else:
        pairs = ac_sequence(*_ac(spec), n)
    return [entry(p, q) for p, q in pairs]


def _check_n(spec: WeightSpec, n: int):
    """The one test that the weight is defined on n states."""
    if n < 1 or n > domain_limit(spec):
        raise IndexOutOfDomain(f"n={n} is outside the weight's domain")


def down_step_table(spec: Custom, n: int, entry=Fraction) -> list:
    """Rows [w[0, x] / N_x, ..., w[x, x] / N_x] for x < n of a custom
    weight: the lower triangle of the down-step matrix H.  An entry p / q
    is entry(p f_x, q e_x), N_x = e_x / f_x, so it is reduced once, by
    entry: `Fraction` where the entries are computed with, and
    `serialize._rational_text`, which reduces the pair straight to its
    text, where they are printed.  `Custom` rejects a column sum that is
    not positive, so no N_x is tested.  TABLE_BUDGET is checked after the
    domain and before the norms, which take O(n^2).  A named family's walk
    is built from its eigenvalue sequence (`walk.transition_matrix`)."""
    _check_n(spec, n)
    check_table(n)
    zero = Fraction(0)
    rows = []
    for x in range(n):
        column = [spec.table.get((y, x), zero) for y in range(x + 1)]
        norm = sum(column)
        e, f = norm.numerator, norm.denominator
        rows.append([entry(w.numerator * f, w.denominator * e) for w in column])
    return rows


def invariant_closed_form(spec: WeightSpec, n: int) -> list:
    """Stationary law of a named family: pi_x ∝ C(n-1, x) (A)_{x*} (C)_x,
    from the reduced integer pairs of `_rising`, or C(n-1, x) (1+c)^x for
    gamma(c), c = p/q, read as the integers C(n-1, x) q^{x*} (p+q)^x, its
    multiple by q^{n-1} (`_mu_powers`), and normalised by `_linalg.law`.
    On delta every factor A+k and C+k, k <= n-2, is negative (`ac_sequence`),
    so each term has the one sign (-1)^{n-1}, which the normalisation
    cancels.  Their Theta(n)-bit numerators need n <= TABLE_BUDGET, checked
    after the domain, as for a table."""
    if isinstance(spec, Custom):
        raise UnsupportedFamily("closed-form invariant only for named families")
    _check_n(spec, n)
    check_table(n)
    if isinstance(spec, GammaC):
        low, high = ([(w, 1) for w in powers] for powers in _mu_powers(spec.c, n))
    else:
        low, high = (_rising(r, n) for r in _ac(spec))
    return law([(math.comb(n - 1, x) * a * e, b * f)
                for x, ((a, b), (e, f)) in enumerate(zip(reversed(low), high))])


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

