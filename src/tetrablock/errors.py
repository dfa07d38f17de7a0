"""Exception hierarchy for the tetrablock package.

Every failure mode that a caller can reasonably branch on gets its own
class.  All of them derive from :class:`TetrablockError`, so ``except
TetrablockError`` catches anything raised deliberately by this package
while letting programming errors (TypeError and friends) propagate.
"""

__all__ = [
    "TetrablockError",
    "NonSquareError",
    "DimensionMismatchError",
    "NotHermitianError",
    "NoConvergenceError",
    "NotPSDError",
    "NotAContractionError",
    "InconsistentEquationError",
    "BadSplitError",
    "NotIsometricEmbeddingError",
    "ValidationRequiredError",
    "TruncationTooSmallError",
]


class TetrablockError(Exception):
    """Base class for all errors raised by this package."""


class NonSquareError(TetrablockError):
    """A square matrix was required but a rectangular one was supplied."""


class DimensionMismatchError(TetrablockError):
    """Operands have incompatible shapes."""


class NotHermitianError(TetrablockError):
    """Matrix fails the Hermitian symmetry gate beyond tolerance."""


class NoConvergenceError(TetrablockError):
    """An iterative solver exhausted its budget without converging."""


class NotPSDError(TetrablockError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class NotAContractionError(TetrablockError):
    """Operator norm exceeds one beyond tolerance."""


class InconsistentEquationError(TetrablockError):
    """A structured matrix equation has no solution within tolerance."""


class BadSplitError(TetrablockError):
    """A block split index is out of range for the given dimension."""


class NotIsometricEmbeddingError(TetrablockError):
    """The supplied embedding is not isometric: a boundary coordinate repeats."""


class ValidationRequiredError(TetrablockError):
    """Input failed an admissibility check a construction requires."""


class TruncationTooSmallError(TetrablockError):
    """The truncation level is too small for the requested extraction."""
