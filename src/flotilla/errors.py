"""The package's two failures, one per exit code of ``flotilla``."""


class DomainError(ValueError):
    """Bad input: an argument outside the operation's domain, such as a singular or non-convex curve (exit 2)."""


class SolverError(ArithmeticError):
    """A numerical failure: a root finder, continuation or quadrature did not converge (exit 3)."""
