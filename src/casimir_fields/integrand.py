"""Dimensionless (u, t) integrands for the field expectations in both geometries.

The renormalized expectations of E^2, B^2 and the energy density are all
double integrals over u in [0, inf) and t in [0, 1] of u^3 times a
polarization bracket times an exponential envelope. Outside a single
half-space the envelope is exp(-2 u z); inside a vacuum gap of width ``a``
the integrand splits into a z-independent bracket (always <= 0 for the
energy density) and a position bracket riding on
exp(-u a) cosh(u (2z - a)) (always >= 0 for the energy density). The
divergent free-space piece is never represented; its subtraction is built
into these expressions.

None of the brackets depends on z: position enters only through the
envelope. `integrand_function` therefore also offers the bracket form, which
the batched engine integrates once for every position of a profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .dielectric import DielectricModel, Drude, PolarNode, _drude_factors, _reflection_factors, reflection_values
from .errors import DomainError, is_finite_real

__all__ = [
    "SingleInterface",
    "Cavity",
    "Geometry",
    "FieldKind",
    "CavityIntegrandTerms",
    "single_bracket",
    "cavity_terms",
    "single_integrand",
    "cavity_integrand_terms",
    "cavity_integrand",
    "integrand_function",
    "position_envelope",
    "decay_scale_for",
    "SINGLE_PREFACTOR",
    "CAVITY_PREFACTOR",
]

SINGLE_PREFACTOR = 1.0 / (4.0 * math.pi**2)
CAVITY_PREFACTOR = 1.0 / (2.0 * math.pi**2)


@dataclass(frozen=True)
class SingleInterface:
    """Dielectric filling z < 0, vacuum in z > 0."""


@dataclass(frozen=True)
class Cavity:
    """Vacuum gap of the given width between two identical half-spaces."""

    width: float

    def __post_init__(self):
        if not (is_finite_real(self.width) and self.width > 0):
            raise DomainError(f"cavity width must be positive and finite, got {self.width!r}")


Geometry = Union[SingleInterface, Cavity]


class FieldKind(Enum):
    """Which quadratic field expectation an integrand assembles."""

    E_SQUARED = "e2"
    B_SQUARED = "b2"
    ENERGY_DENSITY = "u"


@dataclass(frozen=True)
class CavityIntegrandTerms:
    """The two brackets of a cavity integrand, without the u^3 prefactor.

    ``term_constant`` is the z-independent bracket and ``term_position``
    the cosh-weighted one; the integrand is their sum times
    ``CAVITY_PREFACTOR * u**3``.
    """

    term_constant: float
    term_position: float


def single_bracket(kind: FieldKind, r, rp, t):
    """Polarization weight of the single-interface integrand.

    Takes reflection arrays (r, rp) and t directly so that callers can
    probe symmetry properties (swapping r and rp maps the E^2 bracket
    onto the B^2 bracket).
    """
    tt = t * t
    if kind is FieldKind.E_SQUARED:
        minus = -tt * r
        return _into(np.add, minus, (2.0 - tt) * rp, minus)
    if kind is FieldKind.B_SQUARED:
        plus = (2.0 - tt) * r
        return _into(np.subtract, plus, tt * rp, plus)
    if kind is FieldKind.ENERGY_DENSITY:
        total = r + rp
        return _into(np.multiply, 1.0 - tt, total, total)
    raise TypeError(f"unknown field kind {kind!r}")


def _into(ufunc, a, b, out):
    """ufunc(a, b), written over ``out`` when it is an array of the result's shape, else into a new array.

    ``out`` must be a temporary of the caller's that nothing else reads
    afterwards; the arithmetic, and so every bit of the result, is that of
    ``ufunc(a, b)``. This keeps a chain of full-grid products from holding
    a new float64 array per step.
    """
    if isinstance(out, np.ndarray):
        try:
            return ufunc(a, b, out=out)
        except ValueError:  # the result has a dimension that out lacks; nothing was written
            pass
    return ufunc(a, b)


def _cavity_dressing(r, rp, u, t, a):
    """Constant bracket and the multiply reflected coefficients r/D, r'/D' of a cavity.

    No growing exponential is ever formed: the geometric denominators use

        D = 1 - r^2 e^{-2ua} = (1 - r)(1 + r) + r^2 (1 - e^{-2ua})

    with the last factor from expm1. The position bracket of any field is
    `single_bracket` evaluated on the dressed pair. Each term keeps the shape
    of its factors, so a Drude r of shape (n_u, 1) is dressed on the u axis only.
    """
    tt = t * t
    em = -np.expm1(-2.0 * u * a)  # 1 - exp(-2ua), accurate for small ua
    damp = np.exp(-2.0 * u * a)
    dr, drp = _dressing_denominator(r, em), _dressing_denominator(rp, em)
    reflected = rp * rp * damp
    reflected = _into(np.divide, reflected, drp, reflected)
    reflected = _into(np.add, r * r * damp / dr, reflected, reflected)
    term_constant = _into(np.multiply, -tt, reflected, reflected)
    return term_constant, r / dr, _into(np.divide, rp, drp, drp)


def _dressing_denominator(r, em):
    """(1 - r)(1 + r) + r^2 em, the denominator D of `_cavity_dressing`."""
    product = 1.0 - r
    product = _into(np.multiply, product, 1.0 + r, product)
    square = r * r * em
    return _into(np.add, product, square, square)


def cavity_terms(kind: FieldKind, r, rp, u, t, a, z):
    """Constant and position brackets of the cavity integrand, overflow safe.

    Parameters
    ----------
    kind : FieldKind
        Which expectation to assemble.
    r, rp : array_like
        Reflection coefficients at the nodes.
    u, t : array_like
        Node coordinates; u must be strictly positive (the brackets
        themselves diverge at u = 0 when ``|r| = 1``, even though the
        full integrand vanishes there).
    a, z : float
        Gap width and field position, 0 < z < a.

    Returns
    -------
    (ndarray, ndarray)
        Broadcast arrays (term_constant, term_position).

    Notes
    -----
    The constant bracket is the same for every kind.
    """
    term_constant, gr, grp = _cavity_dressing(r, rp, u, t, a)
    position = single_bracket(kind, gr, grp, t)
    return term_constant, _into(np.multiply, position, _cavity_envelope(u, a, z), position)


def _cavity_envelope(u, a, z):
    """e^{-ua} cosh(u(2z - a)), formed as (e^{-2u(a-z)} + e^{-2uz}) / 2 so no exponential grows."""
    return 0.5 * (np.exp(-2.0 * u * (a - z)) + np.exp(-2.0 * u * z))


def single_integrand(kind: FieldKind, model: DielectricModel, z: float, node: PolarNode) -> float:
    """Single-interface integrand value at one node.

    Returns (1 / 4 pi^2) * u^3 * bracket(t) * exp(-2 u z), the density per
    unit u and unit t of the selected expectation at distance z > 0 from
    the interface.
    """
    _check_single_position(z)
    r, rp = reflection_values(model, node.u, node.t)
    bracket = single_bracket(kind, float(r), float(rp), node.t)
    return SINGLE_PREFACTOR * node.u**3 * bracket * math.exp(-2.0 * node.u * z)


def _check_single_position(z) -> None:
    if not (is_finite_real(z) and z > 0):
        raise DomainError(f"field point must lie in the vacuum region, got z = {z!r}")


def _check_cavity_position(a, z) -> None:
    if not (is_finite_real(a) and a > 0):
        raise DomainError(f"cavity width must be positive and finite, got {a!r}")
    if not (is_finite_real(z) and 0 < z < a):
        raise DomainError(f"field point must lie strictly inside the gap, got z = {z!r} with a = {a!r}")


def cavity_integrand_terms(
    kind: FieldKind, model: DielectricModel, a: float, z: float, node: PolarNode
) -> CavityIntegrandTerms:
    """Term decomposition of the cavity integrand at one node.

    Exposes the z-independent and z-dependent brackets separately so that
    their signs can be tested: for the energy density of a Drude mirror or
    a perfect conductor, term_constant <= 0 <= term_position at every node.
    """
    _check_cavity_position(a, z)
    if node.u == 0.0:
        r0, rp0 = reflection_values(model, 0.0, node.t)
        if abs(float(r0)) == 1.0 or abs(float(rp0)) == 1.0:
            raise DomainError("cavity brackets diverge at u = 0 for a unit-reflectivity model")
    r, rp = reflection_values(model, node.u, node.t)
    const, pos = cavity_terms(kind, r, rp, node.u, node.t, a, z)
    return CavityIntegrandTerms(float(const), float(pos))


def cavity_integrand(kind: FieldKind, model: DielectricModel, a: float, z: float, node: PolarNode) -> float:
    """Cavity integrand value at one node: (1 / 2 pi^2) u^3 (const + position).

    At u = 0 the brackets can diverge while the u^3 prefactor wins; the
    continuous limit of the product is zero, which is what is returned.
    """
    _check_cavity_position(a, z)
    if node.u == 0.0:
        return 0.0
    terms = cavity_integrand_terms(kind, model, a, z, node)
    return CAVITY_PREFACTOR * node.u**3 * (terms.term_constant + terms.term_position)


def decay_scale_for(geometry: Geometry, z: float) -> float:
    """Exponential decay scale of the integrand in u: 2z, or 2 min(z, a-z)."""
    if isinstance(geometry, SingleInterface):
        _check_single_position(z)
        return 2.0 * float(z)
    if isinstance(geometry, Cavity):
        _check_cavity_position(geometry.width, z)
        return 2.0 * min(float(z), geometry.width - float(z))
    raise TypeError(f"unknown geometry {geometry!r}")


def position_envelope(geometry: Geometry, z_values) -> Callable[[np.ndarray], np.ndarray]:
    """Weight of the position brackets at each z, as a function of u.

    The returned callable maps u of shape (n,) to an array of shape
    (len(z_values), n): exp(-2uz) outside a single interface, and
    (exp(-2u(a-z)) + exp(-2uz)) / 2 inside a cavity. Positions are not
    validated here; `decay_scale_for` does that.
    """
    z = np.asarray(z_values, dtype=float)[:, None]
    if isinstance(geometry, SingleInterface):
        return lambda u: np.exp(-2.0 * u * z)
    if isinstance(geometry, Cavity):
        return lambda u: _cavity_envelope(u, geometry.width, z)
    raise TypeError(f"unknown geometry {geometry!r}")


def integrand_function(
    kind: FieldKind | None,
    geometry: Geometry,
    model: DielectricModel | Sequence[Drude],
    z: float | None = None,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray | tuple]:
    """Vectorized integrand f(u, t) for the quadrature engine.

    With a field ``kind``, the returned callable accepts broadcastable
    arrays with u > 0 and t in [0, 1] and returns that expectation's
    integrand at position ``z`` on the broadcast grid.

    With a field ``kind`` and a sequence of K Drude models it returns the
    family ``(None, f_1, ..., f_K)`` instead, f_k being that integrand for
    the k-th model: the plasma frequencies ride on a leading axis of length
    K, so one call evaluates every member. The batched engine integrates it
    with a unit envelope, one field per member.

    With ``kind=None`` (and no ``z``) it returns the z-independent brackets
    ``(constant, e2_position, b2_position)`` instead, each including the
    u^3 prefactor; the single interface has no constant bracket and gives
    ``None`` in its place. At position z, the <E^2> integrand is
    ``constant + envelope * e2_position`` with the envelope of
    `position_envelope`, and likewise for <B^2>; the energy density is
    their mean. One call thus serves every position and both fields.
    """
    family = isinstance(model, (list, tuple))
    if kind is None:
        if z is not None:
            raise DomainError("the bracket form does not depend on z; pass z=None")
        if family:
            raise DomainError("the bracket form takes one dielectric model")
        return _bracket_function(geometry, model)
    if not family:
        return _field_function(kind, geometry, lambda u, t: _reflection_factors(model, u, t), z)
    if not (model and all(isinstance(member, Drude) for member in model)):
        raise DomainError(f"a family of integrands takes one or more Drude models, got {model!r}")
    wp = np.array([member.plasma_frequency for member in model], dtype=float)[:, None, None]
    field = _field_function(kind, geometry, lambda u, t: _drude_factors(wp, u, t), z)
    return lambda u, t: (None, *field(u, t))


def _field_function(kind: FieldKind, geometry: Geometry, factors, z):
    """The ``kind`` integrand at z, on the reflection coefficients (r, r_prime) = factors(u, t)."""
    if isinstance(geometry, SingleInterface):
        _check_single_position(z)

        def f_single(u, t):
            bracket = _scaled(SINGLE_PREFACTOR * u**3, single_bracket(kind, *factors(u, t), t))
            return _into(np.multiply, bracket, np.exp(-2.0 * u * z), bracket)

        return f_single
    if isinstance(geometry, Cavity):
        a = geometry.width
        _check_cavity_position(a, z)

        def f_cavity(u, t):
            const, pos = cavity_terms(kind, *factors(u, t), u, t, a, z)
            return _scaled(CAVITY_PREFACTOR * u**3, _into(np.add, const, pos, const))

        return f_cavity
    raise TypeError(f"unknown geometry {geometry!r}")


def _bracket_function(geometry: Geometry, model: DielectricModel):
    e2, b2 = FieldKind.E_SQUARED, FieldKind.B_SQUARED
    if isinstance(geometry, SingleInterface):

        def brackets_single(u, t):
            r, rp = _reflection_factors(model, u, t)
            w = SINGLE_PREFACTOR * u**3
            return None, _scaled(w, single_bracket(e2, r, rp, t)), _scaled(w, single_bracket(b2, r, rp, t))

        return brackets_single
    if isinstance(geometry, Cavity):
        a = geometry.width

        def brackets_cavity(u, t):
            const, gr, grp = _cavity_dressing(*_reflection_factors(model, u, t), u, t, a)
            w = CAVITY_PREFACTOR * u**3
            return _scaled(w, const), _scaled(w, single_bracket(e2, gr, grp, t)), _scaled(w, single_bracket(b2, gr, grp, t))

        return brackets_cavity
    raise TypeError(f"unknown geometry {geometry!r}")


def _scaled(w, bracket):
    """w * bracket, written over the temporary bracket where its shape allows."""
    return _into(np.multiply, w, bracket, bracket)
