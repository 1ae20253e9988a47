"""Exception taxonomy shared by all involute modules."""


class InvoluteError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(InvoluteError):
    """A parameter violates its documented range (e.g. a <= -1, mu >= 1)."""


class IndexOutOfDomain(InvoluteError):
    """An interval index lies outside the weight's domain."""


class MalformedWeight(InvoluteError):
    """A weight table breaks the definition (negative value, zero column sum)."""


class NotIrreducible(InvoluteError):
    """The chain has more than one stationary distribution."""


class NoPositiveStationary(InvoluteError):
    """The cycle criterion needs a strictly positive stationary distribution."""


class NotStochastic(InvoluteError):
    """The eigenvalue sequence does not define a stochastic matrix."""


class ZeroNotAccessible(InvoluteError):
    """State 0 cannot be reached from every state."""


class UnsupportedFamily(InvoluteError):
    """The operation only has a closed form for named weight families."""


class SingularMatrix(InvoluteError):
    """A conjugator test met a singular top-left block (`transform.check_conjugator`)."""


class QuadratureNonConvergence(InvoluteError):
    """Adaptive quadrature exhausted its node budget before reaching tolerance."""


class RepeatedEigenvalue(InvoluteError):
    """Two signed eigenvalues coincide, so back-substitution cannot separate them."""
