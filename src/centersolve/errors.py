"""Exception types shared across the package."""


class CenterSolveError(Exception):
    """Base class for all library errors."""


class DegreeError(CenterSolveError):
    """Degree precondition violated (zero leading coefficient, d too small)."""


class PivotError(CenterSolveError):
    """A required pivot vanishes: D1, or the constant term of a reversal.

    D1 vanishes only for binary forms: an equation outside the ratio
    classes always has D1 != 0.
    """


class CenterRankError(CenterSolveError):
    """The binary center system does not have the rank the operation needs."""

    def __init__(self, rank, message=None):
        self.rank = rank
        super().__init__(message or f"center system has rank {rank}, expected 2")


class RepeatedEigenvalueError(CenterSolveError):
    """The center generator has a repeated eigenvalue (discriminant zero)."""


class NotDiagonalizableError(CenterSolveError):
    """The center algebra is not isomorphic to a product of fields."""


class IrrationalSpectrumError(CenterSolveError):
    """The generic center element does not split over Q in exact mode."""


class NoRadicalMethodError(CenterSolveError):
    """The equation's center is trivial; no radical formula applies here."""


class ResolventFailureError(CenterSolveError):
    """No admissible root of the quartic resolvent cubic was found."""


class NonConvergenceError(CenterSolveError):
    """The numeric root iteration did not converge within its budget."""
