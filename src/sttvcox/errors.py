"""Exception hierarchy shared across the package, and two argument checks
that raise it."""


class SttvError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SttvError, ValueError):
    """Bad input: malformed data, impossible arguments, schema mismatches."""


class SchemaError(ValidationError):
    """An input file lacks a promised column."""


class NumericError(SttvError):
    """A computation produced non-finite or degenerate values."""


class ConvergenceError(SttvError):
    """An iterative solver exhausted its budget.

    Carries the last iterate and the objective path when available so a
    caller can inspect what went wrong.
    """

    def __init__(self, message, last_iterate=None, path=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.path = path


class SeparationError(ConvergenceError):
    """Monotone likelihood: a coefficient diverges without bound."""


def check_count(value, name: str, least: int = 1) -> None:
    """Raise ValidationError unless value is a whole number >= least (not a bool)."""
    try:
        whole = int(value) == value and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValidationError(f"{name} must be a whole number, got {value}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")


def check_positive(value, name: str) -> None:
    """Raise ValidationError unless value is a positive finite number (not a bool)."""
    try:
        ok = 0 < value < float("inf") and not isinstance(value, bool)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
