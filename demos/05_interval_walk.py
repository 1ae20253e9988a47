"""The continuous walk on [0, 1] and its discrete shadows.

The polynomial walk kappa(a, b) has step operator eigenfunctions that are
shifted Jacobi polynomials, orthonormal under the invariant density.  The
trigonometric walk is kappa(0, 0) in the coordinate
phi(x) = (1 - cos(pi x))/2: its eigenfunctions are those of kappa(0, 0) read
at phi(x), with the same eigenvalues (-1)^d/(d+1).  Rescaled exact
eigenvectors of the n-state discrete walk converge to the continuous
eigenfunctions; the distances below halve as n doubles.
"""

from involute.continuum import (
    convergence_table,
    cts_invariant,
    eigen_residuals,
    fixed_point_residual,
    jacobi_eigenfunctions,
    kappa_walk,
    trig_walk,
)
from involute.spectral import signed_eigenvalues
from involute.weights import GammaAB, family_sequence

for walk, name in ((kappa_walk(0, 0), "kappa(0,0)"),
                   (kappa_walk(1, 2), "kappa(1,2)"),
                   (trig_walk(), "trig")):
    residuals = eigen_residuals(walk, 3)
    # the trigonometric walk has kappa(0, 0)'s eigenvalues
    values = signed_eigenvalues(family_sequence(GammaAB(walk.a, walk.b), 4))
    print(f"{name}: eigenvalues {['%.4f' % v for v in values]}")
    print(f"  eigen residuals {['%.1e' % r for r in residuals]}")
    print(f"  fixed-point residual {fixed_point_residual(walk):.1e}")
    print(f"  invariant density at 1/2: {cts_invariant(walk, 0.5):.6f}")
print()

# g_1 is affine, so its values at 0 and 1 give its root
at_0, at_1 = jacobi_eigenfunctions(0, 0, 1, [0.0, 1.0])[1]
print("kappa(0,0) eigenfunctions: g1 root at", at_0 / (at_0 - at_1))
print()

print("discrete -> continuous sup-distances (a=b=0):")
print("n,distance_d1,distance_d2")
sizes = [10, 20, 40, 80]
d1, d2 = convergence_table(0, 0, (1, 2), sizes)
for n, u, v in zip(sizes, d1, d2):
    print(f"{n},{u:.6f},{v:.6f}")
