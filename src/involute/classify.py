"""Classification of globally reversible binomial-transform walks.

A stochastic P^lambda with 0 accessible and n >= 3 is globally reversible
exactly when it is a named family walk.  The forward direction is proved for
every n in the `weights` docstring (`test_family_walks_from_a_and_c` checks
it exactly); the converse is only checked, by the sweep on the grid of
denominators at most 8 for n <= 8.  The family is pinned down by the two
eigenvalues mu = lambda_1 and nu = lambda_2:

    nu > mu^2            gamma(a, b) with  a = mu(mu-nu)/(nu-mu^2) - 1,
                                           b = (1-mu)(mu-nu)/(nu-mu^2) - 1
    nu = mu^2            gamma(c) with c = (1-mu)/mu
    nu_m(mu) < nu < mu^2 delta(-a, -b), valid while n <= domain_limit
    nu = nu_m(mu)        delta(a'_m(mu), m), the exceptional ladder
                         nu_m(mu) = mu(m mu - 1)/(m - 2 + mu),
                         a'_m(mu) = ((m-2) mu + 1)/(1 - mu)

The ladder values nu_m(mu) increase with m and converge to mu^2.  A
classified walk comes back as its weight spec, GammaAB, GammaC or DeltaAB
(the ladder is the DeltaAB with integer b' = m).  The classifier verifies
lambda_3, lambda_4, ... against the candidate family, so a match is exact,
never inferred from (mu, nu) alone; lambda_0..lambda_2 are 1, mu and nu by
the construction of the candidate, which
`test_candidate_diagonal_starts_with_one_mu_nu` checks on the den <= 12 grid.

The check reads the term ratio on integers, not the candidate's sequence.
With mu = p/q, nu = r/s, lead = p s - r q > 0 and gap = r q^2 - p^2 s
(`params_from_mu_nu`, `_lead_gap`), each candidate has A gap = p lead and
C gap = q lead: gamma(a, b) with A = a+1, C = a+b+2, and delta(a', b')
with A = 1-a', C = 2-a'-b' (the `weights` docstring), while gamma(c) has
gap = 0 and ratio mu = p lead / q lead.  As lambda_{d+1} / lambda_d =
(A+d) / (C+d),

    lambda_{d+1} (q lead + d gap) = lambda_d (p lead + d gap)

for every d, checked for d = 2..n-2 by cross-multiplying the terms'
numerators and denominators (`_first_mismatch`).  C+d is never 0 for
d <= n-2 inside the domain (`weights.ac_sequence`), so the test holds
exactly when lambda_{d+1} is the candidate's term, given lambda_d is, and
the first d that fails names the first mismatching term.

The conjecture sweep runs on the integer lattice of
`transform._lattice_records`: each sequence is a tuple of integers
lambda_y * L, L = lcm(1..den), handed over with its difference table.
Detailed balance is decided on the integer L * M read off that table, M
being P without its binomial factors, with P's support, verdict and forest
of potentials (the `transform` docstring).  The sweep reads M's columns,
each table row below its zeros, as rows: that is M^T, so no record
transposes its table.  M^T has M's support, so its support is symmetric
and connected exactly when M's is, with the same trees, and phi balances
M exactly when 1/phi balances M^T: the verdict and the tree count are
M's.  The potentials are integer pairs, and the verdict is taken as the
lattice meets each record, so no record forms P, a Fraction potential or
a table it keeps.  The potentials also decide reachability, so no record
runs a search for it.  A sweep forms one Fraction v / L per distinct
grid value, shared by every record that holds it, and the (mu, nu) case
split of a reversible record forms one Fraction per family parameter.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import FrozenRecord, Record
from .errors import OutOfRange, ZeroNotAccessible
from .exactnum import as_rational
from .transform import _lattice_records, _scaled_walk
from .walk import _potentials, _zero_reachable
from .weights import DeltaAB, GammaAB, GammaC, domain_limit


class IdentityWalk(FrozenRecord):
    """All eigenvalues 1: H is the identity and P is the deterministic flip J."""

    __slots__ = ()


class NotClassified(FrozenRecord):
    __slots__ = _fields = ("reason",)

    def __init__(self, reason: str):
        self._freeze(reason)


Classification = GammaAB | GammaC | DeltaAB | IdentityWalk | NotClassified


def nu_ladder(m: int, mu: Fraction) -> Fraction:
    return mu * (m * mu - 1) / (m - 2 + mu)


def a_prime_ladder(m: int, mu: Fraction) -> Fraction:
    return ((m - 2) * mu + 1) / (1 - mu)


def _min_ladder_m(mu: Fraction, n: int) -> int:
    """floor((1 - mu) / mu * (n - 2)) + 2, on the integers of mu = p/q."""
    p, q = mu.numerator, mu.denominator
    return (q - p) * (n - 2) // p + 2


def params_from_mu_nu(mu, nu, n: int) -> Classification:
    """Family weight spec from the second and third eigenvalues.

    The case split runs on the integers of mu = p/q and nu = r/s, q, s > 0.
    gap = r q^2 - p^2 s has the sign of nu - mu^2, and with
    lead = p s - r q, which is positive as mu > nu,

        a + 1 = p lead / gap,   b + 1 = (q - p) lead / gap,   c = (q - p) / p,

    and delta(-a, -b) has a' = (gap - p lead) / gap and
    b' = (gap - (q - p) lead) / gap.  So each parameter is one Fraction of
    integer products, and the domain test reads those Fractions.  The
    candidate's term ratio is read off the same integers (`_lead_gap`),
    which `_classify` forms once for both (`_candidate`).

    The domain test is the whole admissibility test, ladder included.  An
    integer b' = m is admissible when m >= floor((1 - mu)/mu (n - 2)) + 2
    (`_min_ladder_m`).  With a' - 1 = (m - 1) mu / (1 - mu), m below that
    bound means a' <= n - 1, so n > ceil(a') = domain_limit, which the
    domain test already rejects.
    """
    mu, nu = as_rational(mu), as_rational(nu)
    return _candidate(mu, nu, n, _lead_gap(mu, nu))


def _candidate(mu: Fraction, nu: Fraction, n: int, ratio: tuple) -> Classification:
    """params_from_mu_nu(mu, nu, n), given ratio = _lead_gap(mu, nu)."""
    p, q, lead, gap = ratio
    if not (p < q and lead > 0 and nu.numerator >= 0):
        raise OutOfRange(f"need 1 > mu > nu >= 0, got mu={mu}, nu={nu}")
    if n < 3:
        raise OutOfRange("classification needs n >= 3")
    if gap > 0:
        return GammaAB(Fraction(p * lead - gap, gap), Fraction((q - p) * lead - gap, gap))
    if gap == 0:
        return GammaC(Fraction(q - p, p))
    # nu < mu^2 < mu gives a', b' > 1, and an integer b' is a ladder index m >= 2
    spec = DeltaAB(Fraction(gap - p * lead, gap), Fraction(gap - (q - p) * lead, gap))
    if n > domain_limit(spec):
        return NotClassified(f"delta({spec.a_prime},{spec.b_prime}) does not reach n={n}")
    return spec


def _lead_gap(mu: Fraction, nu: Fraction) -> tuple:
    """(p, q, lead, gap) of mu = p/q and nu = r/s, q, s > 0:
    lead = p s - r q and gap = r q^2 - p^2 s."""
    p, q, r, s = mu.numerator, mu.denominator, nu.numerator, nu.denominator
    return p, q, p * s - r * q, r * q * q - p * p * s


def _first_mismatch(lam: list, p: int, q: int, lead: int, gap: int) -> int | None:
    """The least d >= 3 at which lam leaves the candidate of
    params_from_mu_nu(lam[1], lam[2], n), given that lam[0..2] are its
    terms, from lambda_{d+1} (q lead + d gap) = lambda_d (p lead + d gap);
    None when every term matches.  Only integers are multiplied (the module
    docstring)."""
    up, down = p * lead + 2 * gap, q * lead + 2 * gap  # gap (A + 2), gap (C + 2)
    for d in range(3, len(lam)):
        prev, term = lam[d - 1], lam[d]
        if term.numerator * prev.denominator * down != prev.numerator * term.denominator * up:
            return d
        up += gap
        down += gap
    return None


# states exceptional_ladder may be asked for: the table holds up to n - 2
# rows, and time and memory grow linearly in n; at mu = 99/100 the budget
# takes about 0.3 s in process, while n = 200,000 took 8 s and 82 MB
LADDER_BUDGET = 10_000


def exceptional_ladder(mu, n: int) -> list:
    """Admissible (m, nu_m(mu), a'_m(mu)) triples, largest m first;
    3 <= n <= LADDER_BUDGET."""
    mu = as_rational(mu)
    if not Fraction(1, 2) < mu < 1:
        raise OutOfRange(f"ladder needs 1/2 < mu < 1, got {mu}")
    if n < 3:
        raise OutOfRange("classification needs n >= 3")
    if n > LADDER_BUDGET:
        raise OutOfRange(f"n must be <= {LADDER_BUDGET}, the ladder budget, got {n}")
    lo = max(2, _min_ladder_m(mu, n))
    return [(m, nu_ladder(m, mu), a_prime_ladder(m, mu)) for m in range(n - 1, lo - 1, -1)]


def _top_right_submatrix(p_rows, m: int) -> list:
    n = len(p_rows)
    return [row[n - m:] for row in p_rows[:m]]


def is_globally_reversible(lam) -> bool:
    """Reversibility of every top-right submatrix walk of P^lambda.

    The m x m top-right submatrix equals P of the truncated sequence
    lambda_0..lambda_{m-1}, and truncation preserves stochasticity, so each
    truncation's walk is read off the one matrix as a slice, and only the
    verdict of its detailed-balance potentials is read.  Both verdicts read
    the integer L * M of `transform._scaled_walk`, P without its binomial
    factors: it has P's support and P's detailed-balance verdict, and its
    m x m top-right block is the M of the truncation, as P's is its P.
    """
    p = _scaled_walk(lam)[1]
    if not _zero_reachable(p):
        raise ZeroNotAccessible("state 0 unreachable; the walk never mixes")
    for m in range(2, len(p) + 1):
        if _potentials(_top_right_submatrix(p, m)) is None:
            return False
    return True


def classify_walk(lam) -> Classification:
    """Identify the family walk with this eigenvalue sequence, if any.

    After the (mu, nu) case split the rest of the sequence is verified
    against the candidate's term ratio; any mismatch gives NotClassified.
    Reachability is read from the support of the integer L * M, which is
    P's (`transform._scaled_walk`).
    """
    if len(lam) < 3:
        raise OutOfRange("classification needs n >= 3")
    lam, m = _scaled_walk(lam)
    return _classify(lam, _zero_reachable(m))


def _classify(lam: list, reaches_zero: bool) -> Classification:
    """classify_walk for a stochastic lam (n >= 3), told by its caller
    whether state 0 is reached from every state of the walk.

    The all-ones sequence is decided before reachability: its walk J has
    no single closed class, yet it is the identity walk, not an error.  It
    is the one stochastic lam that ends in 1: a stochastic lam does not
    increase, as D_1(y) = lambda_y - lambda_{y+1} >= 0, and it starts at
    lambda_0 = 1.  Both callers hand over a stochastic lam:
    `_scaled_walk` raises NotStochastic for classify_walk, and the
    lattice yields only stochastic records.
    """
    if lam[-1] == 1:
        return IdentityWalk()
    if not reaches_zero:
        raise ZeroNotAccessible("state 0 unreachable; the walk never mixes")
    n = len(lam)
    mu, nu = lam[1], lam[2]
    ratio = _lead_gap(mu, nu)
    try:
        candidate = _candidate(mu, nu, n, ratio)
    except OutOfRange as exc:
        return NotClassified(str(exc))
    if isinstance(candidate, NotClassified):
        return candidate
    # lambda_0..lambda_2 are 1, mu and nu by the construction of the candidate
    d = _first_mismatch(lam, *ratio)
    return candidate if d is None else NotClassified(f"lambda_{d} mismatches the candidate family")


def classification_label(c: Classification) -> str:
    if isinstance(c, GammaAB):
        return f"gamma(a={c.a}, b={c.b})"
    if isinstance(c, GammaC):
        return f"gamma(c={c.c})"
    if isinstance(c, DeltaAB):
        kind = "m" if c.b_prime.denominator == 1 else "b'"
        return f"delta(a'={c.a_prime}, {kind}={c.b_prime})"
    if isinstance(c, IdentityWalk):
        return "J(n)"
    return f"not classified: {c.reason}"


class SearchRecord(Record):
    """A stochastic grid sequence, its reversibility and, if reversible, its family."""

    __slots__ = _fields = ("lam", "reversible", "classification")

    def __init__(self, lam: list, reversible: bool, classification: Classification | None):
        self.lam, self.reversible, self.classification = lam, reversible, classification


class SearchSummary(Record):
    __slots__ = _fields = ("n", "stochastic", "reversible", "records")

    def __init__(self, n: int, stochastic: int, reversible: int, records: list | None = None):
        self.n, self.stochastic, self.reversible = n, stochastic, reversible
        self.records = [] if records is None else records  # stochastic candidates only

    @property
    def unclassified_reversible(self) -> list:
        return [
            r
            for r in self.records
            if r.reversible and isinstance(r.classification, NotClassified)
        ]


def conjecture_search(n: int, *, max_denominator: int = 8) -> SearchSummary:
    """Sweep stochastic eigenvalue sequences and classify the reversible ones.

    The sweep is the exact grid of stochastic sequences whose entries have
    denominator at most max_denominator; records cover every one of them, in
    the sorted order of the sequences.  It walks the integer lattice, and
    decides each walk's detailed balance as the lattice meets it, on the
    integer L * M of its difference table; only the tuple, and the tree
    count of a reversible one, are kept until the sort, and each distinct
    grid value becomes one Fraction v / L, shared by the records.

    The potentials run on the table rows padded to length n,
    [0] * (n-1-z) + table[z]: they are the columns of M, so the rows read
    are M^T, and no record transposes its table (`transform._dj_rows`).
    M^T has M's support, hence a symmetric support and the same connected
    components exactly when M does, and phi balances M exactly when 1/phi
    balances M^T; so the verdict and the tree count are M's, and P's.

    Reachability needs no search of its own: potentials that span one tree
    mean a symmetric, connected support, so the walk is irreducible and 0
    is reached from every state, while with more trees each tree is a class
    that no step leaves.
    """
    if n < 3 or n > 8:
        raise OutOfRange("the desk-scale sweep covers 3 <= n <= 8")
    scale, stream = _lattice_records(n, max_denominator)
    pads = [[0] * (n - 1 - z) for z in range(n)]
    decided = []  # (scaled, the tree count of its potentials, None if irreversible)
    for scaled, table in stream:
        found = _potentials([pad + row for pad, row in zip(pads, table)])
        decided.append((scaled, None if found is None else found[1]))
    decided.sort()  # the tuples are distinct, so no count is compared
    value = {v: Fraction(v, scale) for v in set().union(*(scaled for scaled, _ in decided))}
    records = []
    for scaled, count in decided:
        lam = [value[v] for v in scaled]
        classification = None if count is None else _classify(lam, count == 1)
        records.append(SearchRecord(lam, count is not None, classification))
    return SearchSummary(
        n=n,
        stochastic=len(records),
        reversible=sum(1 for r in records if r.reversible),
        records=records,
    )
