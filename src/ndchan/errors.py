"""Shared exception types."""


class InstanceFormatError(ValueError):
    """Raised when an instance file cannot be parsed or validated."""


class NotUniformError(ValueError):
    """Raised when edge weights are not uniform on the partition a solve uses."""


class GuardExceeded(RuntimeError):
    """Raised when an operation refuses to run past its resource guard."""


class InternalSolverError(RuntimeError):
    """Raised when a solver invariant breaks; always indicates a bug."""
