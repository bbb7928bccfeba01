"""Exception hierarchy shared by all nlosc modules."""


class NloscError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveParameter(NloscError):
    """A physical constant that must be positive was not."""


class OutsideDomain(NloscError):
    """A coordinate lies outside the Lambda-dependent domain."""


class InvalidDegree(NloscError):
    """Polynomial degree must be a nonnegative integer."""


class PoleInDenominator(NloscError):
    """A denominator of the Jacobi three-term recurrence vanishes."""


class NotAdmissible(NloscError):
    """The quantum numbers do not give a normalizable bound state."""


class LambdaTooSmall(NloscError):
    """|Lambda| is below the switch threshold; use the harmonic branch."""


class QuadratureFailure(NloscError):
    """Quadrature error estimate exceeds the requested tolerance."""


class BracketInvalid(NloscError):
    """The eigenvalue bracket does not hold the requested level."""


class MeshNotConverged(NloscError):
    """An eigenvalue changed beyond the tolerance when the mesh was refined."""


class StiffnessFailure(NloscError):
    """Adaptive step control underflowed."""


class DomainExit(NloscError):
    """A classical trajectory left the region lambda*x**2 + 1 > 0."""


class RadialCollapse(NloscError):
    """A planar trajectory collapsed to r = 0."""


class UnboundedOrbit(NloscError):
    """A trajectory at or above the lam > 0 potential's plateau ran off to infinity."""


class NonFiniteValue(NloscError):
    """A NaN or infinity reached the serializer."""
