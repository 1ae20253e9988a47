"""Exact spectral analysis of involutive random walks.

A walk on {0, ..., n-1} steps from x by choosing y <= x with probability
proportional to an interval weight and moving to n-1-y.  This package
constructs the resulting anti-triangular transition matrices over exact
rationals, computes their stationary distributions, eigenvalues and
eigenvectors in closed form, decides reversibility and the anti-diagonal
eigenvalue property, classifies the globally reversible walks, and checks
the continuous analogue on [0, 1] numerically.
"""

from .exactnum import binom
from .weights import Custom, DeltaAB, GammaAB, GammaC, UNBOUNDED

__all__ = [
    "binom",
    "GammaAB",
    "GammaC",
    "DeltaAB",
    "Custom",
    "UNBOUNDED",
]

__version__ = "0.1.0"
