"""Exception types shared across the package."""


class FlotillaError(Exception):
    """Base class for all package-specific failures."""


class DomainError(FlotillaError, ValueError):
    """An argument lies outside the operation's mathematical domain."""


class SingularParametrizationError(DomainError):
    """The curve parametrization is singular (zero tangent) at the point."""


class DegenerateCurveError(DomainError):
    """det(tangent, second derivative) is not strictly positive."""


class SingularFrameError(FlotillaError, ValueError):
    """Affine frame with zero determinant."""


class ParallelElementsError(FlotillaError):
    """Linear elements or tangent lines are parallel where an intersection is required."""


class SolverError(FlotillaError):
    """Root finding failed (no bracket, no convergence, or no closure)."""


class AccuracyError(FlotillaError):
    """A quadrature or iteration did not reach the requested tolerance."""
