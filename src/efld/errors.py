"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: usage errors exit 1, data and
validation errors exit 2, internal invariant violations exit 3.
"""


class EfldError(Exception):
    """Base class for all toolkit errors."""


class UsageError(EfldError):
    """The caller asked for something the API cannot do."""


class ConfigError(EfldError):
    """A model or training configuration violates its invariants."""


class ShapeError(EfldError):
    """Tensor shapes are inconsistent for the requested operation."""

    def __init__(self, op, message):
        super().__init__(f"{op}: {message}")
        self.op = op


class DataError(EfldError):
    """A dataset or model file on disk is malformed or missing."""


class ParseError(DataError):
    """A record could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(DataError):
    """Parsed data violates a documented invariant (range, length, size)."""


class ContainerError(DataError):
    """A serialized model file is not a valid container."""


class CorruptionError(ContainerError):
    """A container's tensor table points outside the file payload."""


class CalibrationError(EfldError):
    """Quantization calibration does not cover every activation site, or
    measured a range that is not finite."""


class NumericsError(EfldError):
    """A loss, gradient or parameter update became non-finite during training."""
