"""Classify globally reversible walks from (mu, nu) and sweep a grid.

With mu = lambda_1 and nu = lambda_2, the position of nu relative to mu^2
decides the family; below mu^2 a ladder of exceptional values nu_m(mu)
produces integer-banded walks.  The sweep enumerates every stochastic
eigenvalue sequence on a small grid and confirms the reversible ones all
land in a family (or at the deterministic flip J).
"""

from fractions import Fraction as F

from involute.classify import (
    classification_label,
    classify_walk,
    conjecture_search,
    exceptional_ladder,
    params_from_mu_nu,
)

print("mu = 2/3, n = 10: the family from the position of nu against mu^2 = 4/9:")
for nu in (F(1, 2), F(4, 9), F(10, 23), F(2, 5)):
    print(f"  nu={nu} -> {classification_label(params_from_mu_nu(F(2, 3), nu, 10))}")
print()

print("mu = 2/3, n = 10 exceptional ladder (m, nu_m, a'_m):")
for m, nu, ap in exceptional_ladder(F(2, 3), 10):
    print(f"  m={m}  nu={nu}  a'={ap}")
print()

EXAMPLES = [
    [F(1), F(1, 2), F(1, 3), F(1, 4)],
    [F(1), F(2, 3), F(4, 9), F(8, 27)],
    [F(1), F(3, 4), F(1, 2), F(1, 4)],
    [F(1), F(2, 3), F(10, 23)],
]
for lam in EXAMPLES:
    shown = ",".join(map(str, lam))
    print(f"lambda = ({shown}) -> {classification_label(classify_walk(lam))}")
print()

for n in (3, 4):
    summary = conjecture_search(n, max_denominator=6)
    print(
        f"n={n}: {summary.stochastic} stochastic grid points, "
        f"{summary.reversible} reversible, "
        f"{len(summary.unclassified_reversible)} unclassified"
    )
    shown = 0
    for record in summary.records:
        if record.reversible and shown < 5:
            lam = ",".join(map(str, record.lam))
            print(f"  ({lam}) -> {classification_label(record.classification)}")
            shown += 1
