"""Exception types, and the number checks behind every input validation."""

import math
import numbers

__all__ = [
    "CasimirFieldsError",
    "DomainError",
    "DivergesAtBoundary",
    "InvalidDecayScale",
    "NonConvergence",
    "NoSignChange",
    "NotApplicableError",
]


class CasimirFieldsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CasimirFieldsError, ValueError):
    """An argument lies outside the physical domain of the operation."""


class DivergesAtBoundary(CasimirFieldsError):
    """The requested quantity diverges as the field point reaches a wall."""


class InvalidDecayScale(CasimirFieldsError, ValueError):
    """The decay scale handed to the integrator is not a positive number."""


class NonConvergence(CasimirFieldsError):
    """Adaptive integration could not meet its tolerance.

    Either the engine's 2,000 panel splits ran out, or the tail bound and
    the t term (the roundoff allowance of the t integrals, or a lifted
    callable's t-rule error estimate) together exceed the tolerance, which
    no split reduces. The best available estimate is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NoSignChange(CasimirFieldsError):
    """A bracketing root search was given an interval without a sign change."""


class NotApplicableError(CasimirFieldsError):
    """The requested diagnostic is undefined for the given model."""


def is_finite_real(value) -> bool:
    """True for a finite Python or numpy real number; False for bool, NaN and infinities."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for bool and for floats, even integral ones."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
