"""Material models on the imaginary frequency axis and their reflection coefficients.

Everything is carried in natural units (hbar = c = 1), so frequencies and
inverse lengths share one unit. Reflection is evaluated in the polar node
variables (u, t): the Euclidean frequency is zeta = u*t and the transverse
momentum is k = u*sqrt(1 - t^2), with t = cos(theta) in [0, 1].

The two coefficients describe the transverse-electric (``r``) and
transverse-magnetic (``r_prime``) polarizations of a planar
vacuum/dielectric interface. On the imaginary axis they are real, with
-1 <= r <= 0 and 0 <= r_prime <= 1 for the models implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, is_finite_real

__all__ = [
    "Drude",
    "ConstantEpsilon",
    "PerfectConductor",
    "Vacuum",
    "DielectricModel",
    "PolarNode",
    "ReflectionPair",
    "epsilon_imag_axis",
    "reflection_pair",
    "reflection_values",
]


@dataclass(frozen=True)
class Drude:
    """Collisionless metal: eps(i*zeta) = 1 + (plasma_frequency / zeta)**2."""

    plasma_frequency: float

    def __post_init__(self):
        wp = self.plasma_frequency
        if not (is_finite_real(wp) and wp > 0):
            raise DomainError(f"plasma_frequency must be positive and finite, got {wp!r}")


@dataclass(frozen=True)
class ConstantEpsilon:
    """Nondispersive dielectric with a fixed permittivity greater than 1."""

    epsilon: float

    def __post_init__(self):
        eps = self.epsilon
        if not (is_finite_real(eps) and eps > 1):
            raise DomainError(f"epsilon must be finite and greater than 1, got {eps!r}")


@dataclass(frozen=True)
class PerfectConductor:
    """Ideal mirror limit: r = -1 and r_prime = +1 at every node."""


@dataclass(frozen=True)
class Vacuum:
    """No interface at all; both reflection coefficients vanish identically."""


DielectricModel = Union[Drude, ConstantEpsilon, PerfectConductor, Vacuum]


@dataclass(frozen=True)
class PolarNode:
    """A quadrature node (u, t) with u >= 0 and t = cos(theta) in [0, 1]."""

    u: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and self.u >= 0):
            raise DomainError(f"u must be finite and >= 0, got {self.u!r}")
        if not (math.isfinite(self.t) and 0.0 <= self.t <= 1.0):
            raise DomainError(f"t must lie in [0, 1], got {self.t!r}")

    @property
    def zeta(self) -> float:
        """Euclidean frequency reconstructed from the node."""
        return self.u * self.t

    @property
    def k(self) -> float:
        """Transverse momentum reconstructed from the node."""
        return self.u * math.sqrt((1.0 - self.t) * (1.0 + self.t))


@dataclass(frozen=True)
class ReflectionPair:
    """Reflection amplitudes for the two polarizations at one node."""

    r: float
    r_prime: float


def epsilon_imag_axis(model: DielectricModel, zeta: float) -> float:
    """Permittivity eps(i*zeta) of the model on the imaginary frequency axis.

    Parameters
    ----------
    model : DielectricModel
        Material law.
    zeta : float
        Euclidean frequency; must be positive for the Drude model, whose
        permittivity has a pole at zeta = 0, and nonnegative otherwise.

    Returns
    -------
    float
        The permittivity. The perfect conductor returns ``math.inf`` as a
        sentinel; callers must branch on it before doing arithmetic.
    """
    if not math.isfinite(zeta):
        raise DomainError(f"zeta must be finite, got {zeta!r}")
    if isinstance(model, Drude):
        if zeta <= 0:
            raise DomainError("the Drude permittivity has a pole at zeta = 0")
        return 1.0 + (model.plasma_frequency / zeta) ** 2
    if zeta < 0:
        raise DomainError(f"zeta must be >= 0, got {zeta!r}")
    if isinstance(model, ConstantEpsilon):
        return model.epsilon
    if isinstance(model, Vacuum):
        return 1.0
    if isinstance(model, PerfectConductor):
        return math.inf
    raise TypeError(f"unknown dielectric model {model!r}")


def reflection_values(model: DielectricModel, u, t):
    """Vectorized reflection coefficients (r, r_prime) at polar nodes.

    Parameters
    ----------
    model : DielectricModel
        Material law.
    u, t : array_like
        Node coordinates; must broadcast against each other. ``u >= 0``
        and ``0 <= t <= 1`` are assumed, not checked.

    Returns
    -------
    (ndarray, ndarray)
        Read-only views of r and r_prime broadcast to the common shape;
        a coefficient that depends on one axis only is stored once.

    Notes
    -----
    The Drude forms are evaluated without cancellation:

        r  = -wp^2 / (u + w)^2,            w = sqrt(u^2 + wp^2)
        r' = wp^2 (1 - b t^2) / (wp^2 + t^2 u (u + w)),  b = u / (u + w)

    which are exactly the textbook ratios rewritten so that u = 0 (where
    r = -1, r' = 1) and u >> wp (where r ~ -wp^2/4u^2) are both regular.
    For a constant permittivity both coefficients depend on t only, since
    the vacuum and medium decay constants share the overall factor u.
    """
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(u.shape, t.shape)
    r, r_prime = _reflection_factors(model, u, t)
    return np.broadcast_to(r, shape), np.broadcast_to(r_prime, shape)


def _reflection_factors(model: DielectricModel, u: np.ndarray, t: np.ndarray):
    """(r, r_prime) at their natural shapes; `reflection_values` broadcasts them.

    The Drude r has the shape of u, constant-permittivity coefficients the
    shape of t, and perfect-conductor and vacuum coefficients are scalars,
    so callers that broadcast them later do only the work each axis needs.
    u and t are numpy float arrays or scalars.
    """
    if isinstance(model, Vacuum):
        return 0.0, 0.0
    if isinstance(model, PerfectConductor):
        return -1.0, 1.0
    if isinstance(model, Drude):
        wp = model.plasma_frequency
        w = np.hypot(u, wp)
        r = -(wp * wp) / ((u + w) * (u + w))
        tt = t * t
        num = wp * wp * (1.0 - (u / (u + w)) * tt)
        den = wp * wp + tt * u * (u + w)
        return r, num / den
    if isinstance(model, ConstantEpsilon):
        eps = model.epsilon
        q = np.sqrt(1.0 + (eps - 1.0) * t * t)
        return (1.0 - q) / (1.0 + q), (eps - q) / (eps + q)
    raise TypeError(f"unknown dielectric model {model!r}")


def reflection_pair(model: DielectricModel, node: PolarNode) -> ReflectionPair:
    """Reflection coefficients at a single node; see `reflection_values`."""
    r, r_prime = reflection_values(model, node.u, node.t)
    return ReflectionPair(float(r), float(r_prime))
