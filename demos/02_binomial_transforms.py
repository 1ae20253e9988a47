"""Binomial transforms: which eigenvalue sequences give honest walks?

H = B Diag(lambda) B^{-1} (B the Pascal matrix) is lower-triangular with
diagonal lambda, and P = H J is a transition matrix exactly when lambda_0 = 1
and n alternating sums stay non-negative.  The script also shows the two
parametrized matrices that have the global anti-diagonal eigenvalue property
without being binomial transforms, so the genericity caveat is real.
"""

from fractions import Fraction as F

from involute.serialize import matrix_to_pretty
from involute.transform import (
    binomial_transform,
    gadep_counterexample,
    is_stochastic,
    lambda_walk,
    property_report,
)

lam = [F(1), F(1, 2), F(1, 3), F(1, 4)]
print("lambda =", lam)
print("H^lambda:")
print(matrix_to_pretty(binomial_transform(lam), structural_dots=False))
print("P^lambda (this is the uniform-down-step walk):")
print(matrix_to_pretty(lambda_walk(lam)))
print()

for candidate in ([F(1), F(1, 2), F(1, 3), F(1, 4)],
                  [F(1), F(1, 2), F(1, 2), F(3, 4)],
                  [F(1), F(3, 5), F(3, 10), F(1, 20)]):
    verdict = is_stochastic(candidate)
    label = "stochastic" if verdict else f"NOT stochastic ({verdict.reason})"
    print(f"lambda = {candidate}: {label}")
print()

for which, tau in (("L4", F(1)), ("H5", F(1, 4))):
    mat = gadep_counterexample(which, tau)
    rep = property_report(mat)
    print(f"{which} at tau = {tau}:")
    print(matrix_to_pretty(mat, structural_dots=False))
    print(
        f"adep={rep['adep']} gadep={rep['gadep']} "
        f"binomial_transform={rep['is_binomial_transform']} witness={rep['witness']}"
    )
    print()
