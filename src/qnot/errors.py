"""Exception types raised by the public API.

Everything derives from :class:`QnotError` so callers can catch library
failures with a single except clause.  The CLI maps these onto exit codes.
"""


class QnotError(Exception):
    """Base class for all library errors."""


class NotSquare(QnotError):
    """Matrix argument is not square."""


class NotHermitian(QnotError):
    """Matrix argument is not Hermitian within tolerance."""


class NotPSD(QnotError):
    """Matrix argument has an eigenvalue below the allowed floor."""


class GramMismatch(QnotError):
    """Input and output Gram matrices disagree beyond tolerance."""

    def __init__(self, i, j, deviation):
        self.indices = (i, j)
        self.deviation = deviation
        super().__init__(
            f"Gram mismatch at entry ({i}, {j}): |deviation| = {deviation:.3e}"
        )


class DimensionMismatch(QnotError):
    """Vectors or operators of incompatible dimensions were combined."""


class MachineMismatch(QnotError):
    """Machine design data (efficiencies, target map) does not fit the set."""


class WrongDimension(QnotError):
    """State dimension is not allowed for the requested target map."""


class InvalidState(QnotError):
    """Amplitude vector is not a normalized state."""


class InvalidProbeGram(QnotError):
    """Probe Gram matrix is not Hermitian PSD with unit diagonal."""


class LinearlyDependentPair(QnotError):
    """The two reference states are (numerically) parallel."""


class LinearlyDependent(QnotError):
    """State set is linearly dependent where independence is required."""


class InfeasibleGamma(QnotError):
    """Requested efficiencies are not achievable with the given probe."""


class InvalidProbe(QnotError):
    """Probe specification has the wrong kind or shape for this operation."""


class ZeroSuccess(QnotError):
    """Success probability vanishes; postselected state is undefined."""


class DegenerateDeterminant(QnotError):
    """Triple outside the closed form: nearly dependent, or a zero overlap."""


class NoFeasiblePoint(QnotError):
    """Search failed to certify any feasible efficiency point."""
