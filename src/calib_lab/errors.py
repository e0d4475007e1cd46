"""Exception types shared across the toolkit."""


class CalibrationError(Exception):
    """Base class for all calib-lab errors."""


class InvalidInputError(CalibrationError, ValueError):
    """Raised on a bad argument: its type, shape, range or name. A per-record
    check names the first bad ``row`` (0-based) and ``field``."""

    def __init__(self, message: str, *, row: int | None = None, field: str | None = None):
        self.reason, self.row, self.field = message, row, field
        super().__init__(message if row is None else f"row {row}: {message} (field: {field})")


class DatasetFormatError(CalibrationError, ValueError):
    """Raised when a dataset file violates the on-disk contract.

    ``line`` is the 1-based line number, ``field`` the offending key.
    """

    def __init__(self, message: str, *, line: int, field: str | None = None):
        self.line = line
        self.field = field
        suffix = f" (field: {field})" if field else ""
        super().__init__(f"line {line}: {message}{suffix}")


class UnsupportedVersionError(CalibrationError, ValueError):
    """Raised when a parameter file declares a format version we cannot read."""


class UndefinedMetricError(CalibrationError, ValueError):
    """Raised when a metric is undefined for the given inputs,
    e.g. AUROC with only one outcome class present."""


class ShortfallError(CalibrationError, ValueError):
    """Raised when a crafted subset cannot be filled from the source dataset."""

    def __init__(self, message: str, *, band: tuple[float, float] | None = None,
                 available: int | None = None, requested: int | None = None):
        self.band = band
        self.available = available
        self.requested = requested
        super().__init__(message)


class TrainingDivergedError(CalibrationError, RuntimeError):
    """Raised when training produces a non-finite loss; carries the epoch index."""

    def __init__(self, epoch: int, message: str):
        self.epoch = epoch
        super().__init__(message)
