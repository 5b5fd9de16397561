"""Exception types, and the number checks behind every input validation.

A scalar input with an open interval goes through `checked_float`: a finite
real number, not bool, strictly inside the interval, kept as the Python float
it equals, so no numpy scalar type reaches the arithmetic. Anything else raises
DomainError "{name} must be a finite number in ({low!r}, {high!r}), got
{value!r}". `real_array` is the rule's first step for a sequence.
"""

import math
import numbers

import numpy as np

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
    """The integration could not meet its tolerance.

    Either 8 refinements of the engine's u rule left it unmet, or a value or
    error estimate is not finite (NaN or infinite), or the tail bound and the
    roundoff allowances (of the t integrals, or a lifted callable's t-rule
    error estimate, and of the u sums) together exceed the tolerance, which
    no finer step reduces. The best available estimate is attached as
    ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NoSignChange(CasimirFieldsError):
    """A bracketing root search was given an interval without a sign change."""


class NotApplicableError(CasimirFieldsError):
    """The requested diagnostic is undefined for the given model."""


def is_finite_real(value) -> bool:
    """True for a finite Python or numpy real number; False for bool, NaN, infinities and a Python int beyond the float range."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int above about 1.8e308
        return False


def checked_float(value, name: str, low: float = 0.0, high: float = math.inf) -> float:
    """value as a Python float, after checking that it is a finite real number, not bool, with low < value < high.

    The bounds are compared with that float, not in the value's own
    precision. DomainError names ``name`` and the caller's value.
    """
    x = float(value) if is_finite_real(value) else math.nan
    if not low < x < high:
        raise DomainError(f"{name} must be a finite number in ({low!r}, {high!r}), got {value!r}")
    return x


def real_array(values) -> np.ndarray:
    """values as a float array: a float array as it is, otherwise element by element, NaN for anything but a finite real number (bool and an int beyond the float range included)."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return values.astype(float, copy=False)
    return np.array([v if is_finite_real(v) else math.nan for v in values], dtype=float)


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for bool and for floats, even integral ones."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
