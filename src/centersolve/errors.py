"""Exception types shared across the package."""


class CenterSolveError(Exception):
    """Base class for all library errors."""


class DegreeError(CenterSolveError):
    """Degree precondition violated (zero leading coefficient, d too small)."""


class CenterRankError(CenterSolveError):
    """The binary center system does not have the rank the operation needs."""

    def __init__(self, rank, message=None):
        self.rank = rank
        super().__init__(message or f"center system has rank {rank}, expected 2")


class RepeatedEigenvalueError(CenterSolveError):
    """The center generator has a repeated eigenvalue (discriminant zero)."""


class NotDiagonalizableError(CenterSolveError):
    """The center algebra is not isomorphic to a product of fields."""


class NonRationalCoefficientError(CenterSolveError):
    """An exact center computation met a coefficient outside Q (QuadExt, mpf)."""


class NoRadicalMethodError(CenterSolveError):
    """The equation's center is trivial; no radical formula applies here."""


class NonConvergenceError(CenterSolveError):
    """The numeric root iteration did not converge within its budget."""
