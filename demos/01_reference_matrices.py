"""Build the six reference 4x4 involutive walks and inspect their structure.

Each walk on {0, 1, 2, 3} steps from x by drawing y <= x with probability
proportional to an interval weight and jumping to 3 - y.  Anti-triangularity
(dots below the anti-diagonal) is forced by the definition; the anti-diagonal
itself carries the absolute values of the eigenvalues.
"""

from fractions import Fraction as F

from involute.serialize import matrix_to_pretty
from involute.spectral import signed_eigenvalues
from involute.walk import stationary, transition_matrix
from involute.weights import DeltaAB, GammaAB, GammaC, family_sequence, spec_label

SPECS = [
    GammaAB(0, 0),   # uniform down-step
    GammaAB(1, 0),   # y chosen proportional to |[0, y]| = y + 1
    GammaAB(0, 1),   # y chosen proportional to |[y, x]| = x - y + 1
    GammaC(F(1, 2)),
    GammaC(2),
    DeltaAB(4, 2),   # bounded domain: only 2 non-zero anti-diagonal bands
]

for spec in SPECS:
    p = transition_matrix(spec, 4)
    print(f"P for {spec_label(spec)}:")
    print(matrix_to_pretty(p))
    print("stationary:", ", ".join(map(str, stationary(p))))
    signed = signed_eigenvalues(family_sequence(spec, 4))
    print("eigenvalues:", ", ".join(map(str, signed)))
    anti = [p[d][3 - d] for d in range(4)]
    print("anti-diagonal:", ", ".join(map(str, anti)))
    print()
