"""Exception hierarchy for cyclicpd."""


class CyclicPDError(Exception):
    """Base class for all cyclicpd errors."""


class NotSquare(CyclicPDError):
    """Input array is not a square matrix."""


class NotFinite(CyclicPDError):
    """Input array holds an infinite or NaN entry."""


class NotHermitian(CyclicPDError):
    """Asymmetry of the input exceeds the relative tolerance."""


class NotPositiveDefinite(CyclicPDError):
    """Smallest eigenvalue is not strictly positive.

    Carries the offending eigenvalue in ``min_eig``.
    """

    def __init__(self, min_eig, message=None):
        self.min_eig = float(min_eig)
        super().__init__(message or f"matrix is not positive definite (min eigenvalue {self.min_eig:g})")


class ConvergenceFailure(CyclicPDError):
    """The eigensolver did not converge or produced an inconsistent spectrum."""


class DimensionMismatch(CyclicPDError):
    """Operands have incompatible dimensions."""


class IllConditioned(CyclicPDError):
    """Residual of an inverse exceeds its conditioning-scaled bound."""


class SingularDenominator(CyclicPDError):
    """A denominator matrix in a cyclic sum is singular."""


class FixtureMismatch(CyclicPDError):
    """Computed values of the built-in counterexample deviate from the published ones."""
