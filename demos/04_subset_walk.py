"""The involutive walk on subsets of {1..m}: down to a random subset, then up.

From X, keep each element independently with probability p and step to the
complement of what was kept.  The chain is the m-fold Kronecker power of a
2-state walk, so everything is explicit: invariant law p^(m-|X|)/(1+p)^m,
eigenvalues (-p)^e with binomial multiplicities.  A short simulation shows
the empirical visit frequencies settling on the invariant law.
"""

from fractions import Fraction as F

from involute.walk import simulate, subset_matrix, subset_walk, total_variation, visit_frequencies

m, p = 3, F(1, 3)
sub = subset_walk(m, p)
print(f"m={m}, p={p}: states are bitmasks, bit i <-> element i+1")
print("pi           =", ", ".join(map(str, sub.pi)))
print("eigenvalues  =", ", ".join(map(str, sub.eigenvalues)))

counts = {}
for value in sub.eigenvalues:
    counts[value] = counts.get(value, 0) + 1
print("multiplicities:", {str(k): v for k, v in counts.items()})

run = simulate(subset_matrix(sub), x0=0, steps=200_000, seed=424242)
tv = total_variation(visit_frequencies(run, 2**m), [float(w) for w in sub.pi])
print(f"TV(empirical after 2e5 steps, pi) = {tv:.4f}")
