"""Exception hierarchy for pairdecomp.

Every error raised by the library derives from :class:`PairDecompError`,
so callers can catch the whole family with one clause.
"""


class PairDecompError(Exception):
    """Base class for all pairdecomp errors."""


class NotHermitianError(PairDecompError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSDError(PairDecompError):
    """A matrix required to be positive semidefinite has a genuinely negative eigenvalue."""


class NoConvergenceError(PairDecompError):
    """The Jacobi eigensolver exhausted its sweep budget."""


class SingularOperatorError(PairDecompError):
    """An operator required to be invertible (or strictly positive) is singular."""


class DimensionMismatchError(PairDecompError):
    """Operands live on spaces of different dimension."""


class LengthTooShortError(PairDecompError):
    """A requested decomposition length is below the minimum (rank or current length)."""


class UnequalSupportsError(PairDecompError):
    """The two operators do not share a common support."""


class BothZeroError(PairDecompError):
    """Support reduction collapsed both operators to zero (orthogonal supports)."""


class NegativeEntryError(PairDecompError):
    """A weight vector contains a negative entry."""


class NotMajorizedError(PairDecompError):
    """The target weights are not majorized by the operator spectrum."""

    def __init__(self, message, violated_prefix=None):
        super().__init__(message)
        #: first prefix length whose partial sum exceeds the spectrum's, if known
        self.violated_prefix = violated_prefix


class NotADecompositionError(PairDecompError):
    """A vector list does not reconstruct the claimed operator."""


class MTooLargeError(PairDecompError):
    """A pairing size exceeds the available number of vectors."""


class MatrixFileError(PairDecompError):
    """An operator file could not be parsed, or a command flag is out of range."""
