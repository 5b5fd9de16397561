"""Material models on the imaginary frequency axis and their reflection coefficients.

Everything is carried in natural units (hbar = c = 1), so frequencies and
inverse lengths share one unit. Reflection is evaluated in the polar node
variables (u, t): the Euclidean frequency is zeta = u*t and the transverse
momentum is k = u*sqrt(1 - t^2), with t = cos(theta) in [0, 1].

The two coefficients describe the transverse-electric (``r``) and
transverse-magnetic (``r_prime``) polarizations of a planar
vacuum/dielectric interface. On the imaginary axis they are real, with
-1 <= r <= 0 and 0 <= r_prime <= 1 for the models implemented here.
`reflection_values` evaluates them on arrays of nodes; scalars u and t
give one node. A model stores its parameter as a Python float, a numpy real
as the float it equals, so no numpy scalar type reaches the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import checked_float

__all__ = [
    "Drude",
    "ConstantEpsilon",
    "PerfectConductor",
    "Vacuum",
    "DielectricModel",
    "reflection_values",
]


@dataclass(frozen=True)
class Drude:
    """Collisionless metal: eps(i*zeta) = 1 + (plasma_frequency / zeta)**2."""

    plasma_frequency: float

    def __post_init__(self):
        object.__setattr__(self, "plasma_frequency", checked_float(self.plasma_frequency, "plasma_frequency"))


@dataclass(frozen=True)
class ConstantEpsilon:
    """Nondispersive dielectric with a fixed permittivity greater than 1."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", checked_float(self.epsilon, "epsilon", low=1.0))


@dataclass(frozen=True)
class PerfectConductor:
    """Ideal mirror limit: r = -1 and r_prime = +1 at every node."""


@dataclass(frozen=True)
class Vacuum:
    """No interface at all; both reflection coefficients vanish identically."""


DielectricModel = Union[Drude, ConstantEpsilon, PerfectConductor, Vacuum]


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
    Both come from `_reflection_factors`, as the textbook ratios rewritten
    without cancellation. For a Drude mirror, with s = u + sqrt(u^2 + wp^2),

        r  = -wp^2 / s^2
        r' = (1 - b t^2) / (1 + c t^2),   b = u / s,  c = u s / wp^2

    so that u = 0 (where r = -1, r' = 1) and u >> wp (where
    r ~ -wp^2/4u^2) are both regular. For a constant permittivity both
    depend on t only, since the vacuum and medium decay constants share the
    overall factor u; with q = sqrt(1 + (eps - 1) t^2) they are

        r  = -(eps - 1) t^2 / (1 + q)^2
        r' = (eps - 1)(eps + 1 - t^2) / (eps + q)^2

    the ratios (1 - q)/(1 + q) and (eps - q)/(eps + q) without their
    subtraction, so that they keep their relative accuracy as eps -> 1.
    """
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(u.shape, t.shape)
    r, r_prime = _reflection_factors(model, u, t, total=False, squares=False)[:2]
    return np.broadcast_to(r, shape), np.broadcast_to(r_prime, shape)


def _reflection_factors(model: DielectricModel, u, t, total: bool, squares: bool):
    """r, r', r + r', 1 - r^2 and 1 - r'^2 at the nodes (u, t), each at the broadcast shape of what it depends on, or as a scalar.

    A Drude mirror forms r + r' only if ``total`` and the squares only if
    ``squares``, giving None otherwise: on a (u, t) grid they are most of
    its work, and outside one mirror nothing reads the squares.

    None is a difference of nearly equal numbers. For a Drude mirror, with
    the b, c and s of `reflection_values`, x = t^2 and M = 1 + c x:
    1 + r = 2b, r + r' = 2b (1 - x)/M, 1 - r^2 = (1 + wp^2/s^2) 2b and
    1 - r'^2 = (c + b) x (2 + (c - b) x)/M^2, with c - b = 2u^2/wp^2. For a
    constant permittivity they come from 1 + r = 2/(1 + q),
    1 - r = 2q/(1 + q), 1 + r' = 2 eps/(eps + q), 1 - r' = 2q/(eps + q) and
    r + r' = 2 (eps - 1)(1 - t^2)/((1 + q)(eps + q)): not as eps -> 1,
    where r and r' vanish, nor as eps grows and -r and r' approach 1.
    """
    if isinstance(model, Drude):
        wp = model.plasma_frequency
        wp2 = wp * wp
        s = u + np.hypot(u, wp)
        b, c = u / s, (u * s) / wp2
        x = t * t
        m = 1.0 + c * x
        minus_r = wp2 / (s * s)
        twice_b = b + b
        r_sum = twice_b * (1.0 - x) / m if total else None
        square = square_p = None
        if squares:
            square = (1.0 + minus_r) * twice_b
            square_p = ((c + b) * x / m) * ((2.0 + (2.0 * (u * u) / wp2) * x) / m)
        return -minus_r, (1.0 - b * x) / m, r_sum, square, square_p
    if isinstance(model, Vacuum):
        return 0.0, 0.0, 0.0, 1.0, 1.0
    if isinstance(model, PerfectConductor):
        return -1.0, 1.0, 0.0, 0.0, 0.0
    if isinstance(model, ConstantEpsilon):
        eps = model.epsilon
        tt = t * t
        x = (eps - 1.0) * tt
        q = np.sqrt(1.0 + x)
        one_q, eps_q = 1.0 + q, eps + q
        # divisions before products: no intermediate exceeds eps, however large it is
        eps_ratio = (eps - 1.0) / eps_q
        r = -(x / one_q) / one_q
        rp = eps_ratio * ((eps + 1.0 - tt) / eps_q)
        total = (2.0 * eps_ratio) * ((1.0 - tt) / one_q)
        return r, rp, total, (4.0 * q / one_q) / one_q, (4.0 * (eps / eps_q)) * (q / eps_q)
    raise TypeError(f"unknown dielectric model {model!r}")
