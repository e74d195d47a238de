"""Exception and warning types shared across the package."""


class DriftAlignError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DriftAlignError, ValueError):
    """Operands live in incompatible ambient or subspace dimensions."""


class RankDeficient(DriftAlignError, ValueError):
    """Input matrix does not have the numerical rank the operation needs."""


class CutLocusError(DriftAlignError, ArithmeticError):
    """A principal angle reached pi/2, where the geodesic is not unique."""


class NotTangentError(DriftAlignError, ValueError):
    """Matrix passed as a tangent vector is not orthogonal to the base point."""


class AngleOutOfRange(DriftAlignError, ValueError):
    """Principal angle outside the domain [0, pi/2) of the closed forms."""


class LengthMismatch(DriftAlignError, ValueError):
    """Angle vectors of different lengths were paired."""


class NoConvergence(DriftAlignError, RuntimeError):
    """Iteration budget exhausted with the residual still far from tolerance."""


class EmptyClassError(DriftAlignError, ValueError):
    """A class label has no training samples."""


class BlendOutOfRange(DriftAlignError, ValueError):
    """Compensation blend outside [0, 1]."""


class BadParameter(DriftAlignError, ValueError):
    """Invalid stream-generator or dataset parameter."""


class ConfigError(DriftAlignError, ValueError):
    """Inconsistent pipeline configuration."""


class CsvParseError(DriftAlignError, ValueError):
    """Malformed CSV cell; carries the 1-based row and column location."""

    def __init__(self, message: str, row: int, column: int | None = None):
        location = f"row {row}" if column is None else f"row {row}, column {column}"
        super().__init__(f"{message} ({location})")
        self.row = row
        self.column = column


class LabelOutOfRange(DriftAlignError, ValueError):
    """Class label outside [0, n_classes)."""


class AngleClampWarning(UserWarning):
    """Extrapolation step angle exceeded pi/4 and was clamped."""
