"""Exception types shared across the package."""


class VlltrError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(VlltrError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ValidationError(VlltrError, ValueError):
    """Invalid configuration, file content, or argument value."""


class NumericError(VlltrError, ArithmeticError):
    """A non-finite value appeared where a finite one is required."""


class StaleArtifactError(ValidationError):
    """An input was written under another config than the run's, or
    changed after the stage that wrote it recorded it."""
