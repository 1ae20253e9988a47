"""Convergence rates: exact matrix powers against a seeded simulation.

The second largest absolute eigenvalue (a+1)/(a+b+2) drives the geometric
decay of ||P^t(x, .)/pi - 1||.  The fit below uses exact rational powers
(floats only at the norm step), then a long simulated trajectory is compared
with the invariant law in total variation.
"""

from fractions import Fraction as F

from involute.walk import (mixing_report, simulate, total_variation, transition_matrix,
                           visit_frequencies)
from involute.weights import DeltaAB, GammaAB, GammaC, invariant_closed_form, spec_label

for spec in (GammaAB(0, 0), GammaAB(2, 0), GammaC(1), DeltaAB(4, 2)):
    n = 8 if not isinstance(spec, DeltaAB) else 4
    rep = mixing_report(spec, n)
    print(
        f"{spec_label(spec)} at n={n}: |lambda_1| = {rep.second_abs_eigenvalue} "
        f"fitted decay rate = {rep.empirical_rate:.6f}"
    )
print()

spec = GammaAB(F(1, 2), F(1, 2))
p = transition_matrix(spec, 6)
pi = [float(w) for w in invariant_closed_form(spec, 6)]
for steps in (1_000, 10_000, 100_000):
    run = simulate(p, x0=0, steps=steps, seed=7)
    tv = total_variation(visit_frequencies(run, 6), pi)
    print(f"steps={steps:>6}: TV to pi = {tv:.4f}")
