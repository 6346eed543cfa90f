"""Exception types shared across the library."""

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
