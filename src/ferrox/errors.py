"""Exception hierarchy shared by all ferrox modules."""

from __future__ import annotations


class FerroxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FerroxError):
    """The evaluation point lies outside the function's domain of analyticity."""


class BeyondRangeError(DomainError):
    """A value on the way to the result is beyond double range."""


class BranchCutError(DomainError):
    """The argument sits exactly on a branch cut where no single value exists."""


class SingularPointError(DomainError):
    """The requested map is singular at this point (division by zero etc.)."""


class ParameterError(FerroxError):
    """Parameters violate a precondition (gamma pole, excluded integer case, ...)."""


class PoleError(ParameterError):
    """The function has a pole at the requested parameter value."""


class DegenerateParameterError(ParameterError):
    """Every available connection formula hits a gamma pole for these parameters."""


class ConvergenceError(FerroxError):
    """A series failed to reach the requested tolerance within the term budget."""


class NoRepresentationError(FerroxError):
    """No representation is valid at the requested point.

    ``reasons`` maps each representation tag to the predicate that failed.
    """

    def __init__(self, message: str, reasons: dict[str, str]):
        super().__init__(message)
        self.reasons = dict(reasons)
