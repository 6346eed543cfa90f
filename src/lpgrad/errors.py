"""Exception types shared across the library, and the one rule for numeric
arguments: every public entry point checks each number with ``_check_int`` or
``_check_real``, which raise ``DomainError`` for one that is out of its domain."""
import math

__all__ = ["LpgradError", "DomainError", "NotApplicableError", "DegenerateSampleError",
           "SingularSchemeError", "EvaluationError"]


class LpgradError(Exception):
    """Base class for all library-specific failures."""


class DomainError(LpgradError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotApplicableError(LpgradError, ValueError):
    """The requested operation does not apply to the given inputs.

    Raised e.g. when decorrelation is requested for a batch with fewer
    samples than dimensions; the benchmark runner turns it, like any
    ``LpgradError`` in a trial, into that trial's row note.
    """


class DegenerateSampleError(LpgradError, ValueError):
    """A sample matrix is numerically rank-deficient."""


class SingularSchemeError(LpgradError, ValueError):
    """The stencil constraint system is singular (repeated offsets)."""


class EvaluationError(LpgradError, RuntimeError):
    """An objective value, or a gradient estimate, at ``point`` is not finite."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


def _check_int(name: str, value, low: int) -> int:
    """``value`` as an int if it is a whole number >= ``low``, else a DomainError."""
    try:
        ok = value >= low and value == int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, nan or inf
        ok = False
    if not ok:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_real(name: str, value, low: float = -math.inf, high: float = math.inf, closed: bool = False):
    """``value`` if it is finite and in (low, high), or [low, high) when ``closed``, else a DomainError."""
    try:
        ok = math.isfinite(value) and (low < value or closed and value == low) and value < high
    except (TypeError, OverflowError):  # not a real number
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a finite number in {'[' if closed else '('}{low:g}, {high:g}), "
                          f"got {value!r}")
    return value
