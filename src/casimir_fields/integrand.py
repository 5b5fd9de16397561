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

For a Drude mirror every bracket is a rational function of x = t^2 whose
coefficients depend on u alone: r' = (1 - b x)/(1 + c x), with b and c
functions of u and the plasma frequency, while r depends on u only. The
Drude field integrands are therefore evaluated as numerator / denominator,
two polynomials of degree 3 in x. Their coefficients in the Bernstein basis
x^k (1 - x)^(3-k) are formed on the u axis from sign-definite parts, and one
matrix product with the basis at the t nodes takes both to the (u, t) grid.
Unlike the monomial basis, whose coefficients cancel catastrophically at
large u and t near 1, the Bernstein form loses no more accuracy than the
bracket arithmetic (Farouki and Rajan, Comput. Aided Geom. Des. 4, 1987).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .dielectric import DielectricModel, Drude, PolarNode, _reflection_factors, reflection_values
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

    With a field ``kind``, the returned callable returns that expectation's
    integrand at position ``z`` on the grid of u > 0 and t in [0, 1]. u and
    t vary along different axes, u's first: u of shape (n, 1) against t of
    shape (1, m) gives the (n, m) grid, and either one may be a scalar, or
    a 1-D array against a scalar. The values have the broadcast shape, or
    are a scalar on one node.

    With a field ``kind`` and a sequence of K Drude models it returns the
    family ``(None, f_1, ..., f_K)`` instead, f_k being that integrand for
    the k-th model on the same grid, so one call evaluates every member.
    The batched engine integrates it with a unit envelope, one field per
    member. A single Drude model is the one-member family, so f_k is
    bit-identical to the k-th model's own integrand.

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
    if family and not (model and all(isinstance(member, Drude) for member in model)):
        raise DomainError(f"a family of integrands takes one or more Drude models, got {model!r}")
    if not (family or isinstance(model, Drude)):
        return _field_function(kind, geometry, model, z)
    members = model if family else [model]
    field = _drude_field_function(kind, geometry, [member.plasma_frequency for member in members], z)
    if family:
        return lambda u, t: (None, *field(u, t))
    return lambda u, t: field(u, t)[0]


def _field_function(kind: FieldKind, geometry: Geometry, model: DielectricModel, z):
    """The ``kind`` integrand at z for a constant-permittivity, perfectly conducting or vacuum model."""
    if isinstance(geometry, SingleInterface):
        _check_single_position(z)

        def f_single(u, t):
            bracket = _scaled(SINGLE_PREFACTOR * u**3, single_bracket(kind, *_reflection_factors(model, u, t), t))
            return _into(np.multiply, bracket, np.exp(-2.0 * u * z), bracket)

        return f_single
    if isinstance(geometry, Cavity):
        a = geometry.width
        _check_cavity_position(a, z)

        def f_cavity(u, t):
            const, pos = cavity_terms(kind, *_reflection_factors(model, u, t), u, t, a, z)
            return _scaled(CAVITY_PREFACTOR * u**3, _into(np.add, const, pos, const))

        return f_cavity
    raise TypeError(f"unknown geometry {geometry!r}")


def _drude_field_function(kind: FieldKind, geometry: Geometry, plasma_frequencies: list, z):
    """The ``kind`` integrand at z of K Drude models, as f(u, t) of shape (K, *grid).

    Every value is numerator / denominator, two cubic polynomials in
    x = t^2 whose Bernstein coefficients depend on u alone
    (`_cavity_coefficients`, `_single_coefficients`); one batched product
    with the basis of `_bernstein_basis` takes both to the grid.
    """
    wp2 = np.square(np.array(plasma_frequencies, dtype=float))[:, None]
    if isinstance(geometry, SingleInterface):
        _check_single_position(z)
        coefficients = functools.partial(_single_coefficients, _SINGLE_MAPS[kind], wp2, -2.0 * z)
    elif isinstance(geometry, Cavity):
        a = geometry.width
        _check_cavity_position(a, z)
        rates = np.array([-2.0 * a, -2.0 * (a - z), -2.0 * z])[:, None]
        coefficients = functools.partial(_cavity_coefficients, _CAVITY_MAPS[kind], wp2, rates)
    else:
        raise TypeError(f"unknown geometry {geometry!r}")

    def f_drude(u, t):
        u, t = np.asarray(u, dtype=float), np.asarray(t, dtype=float)
        shape = _outer_shape(u, t)
        # a matrix product rounds an entry alike whatever the number of rows and
        # columns, so a family member keeps the bits of its plain closure, but a
        # matrix-vector product does not: one u or t node is taken twice
        n_u, n_t = u.size, t.size
        u_nodes = u.ravel() if n_u > 1 else np.repeat(u.ravel(), 2)
        t_nodes = t.ravel() if n_t > 1 else np.repeat(t.ravel(), 2)
        coef = coefficients(u_nodes).reshape(2, 4, -1).transpose(0, 2, 1)  # (2, K n_u, 4)
        values = coef @ _bernstein_basis(t_nodes.tobytes())
        f = np.divide(values[0], values[1], out=values[0]).reshape(wp2.shape[0], u_nodes.size, t_nodes.size)
        return f[:, :n_u, :n_t].reshape(wp2.shape[0], *shape)

    return f_drude


def _outer_shape(u: np.ndarray, t: np.ndarray) -> tuple:
    """Broadcast shape of u and t, which must vary along different axes, u's first."""
    n = max(u.ndim, t.ndim)
    u_shape, t_shape = (1,) * (n - u.ndim) + u.shape, (1,) * (n - t.ndim) + t.shape
    last_u = max((i for i, size in enumerate(u_shape) if size > 1), default=-1)
    if any(size > 1 for size in t_shape[: last_u + 1]):
        raise DomainError(f"u and t must vary along different axes, u's first; got shapes {u.shape} and {t.shape}")
    return tuple(map(max, u_shape, t_shape))


@functools.lru_cache(maxsize=16)
def _bernstein_basis(t_bytes: bytes) -> np.ndarray:
    """The cubic Bernstein basis in x = t^2 at the float64 nodes t, (4, n_t): (1-x)^3, 3x(1-x)^2, 3x^2(1-x), x^3.

    1 - x is formed as (1 - t)(1 + t), accurate up to t = 1. The engine
    calls an integrand on a few t rows over and over, so the bases are kept,
    read-only, keyed on the nodes' bytes.
    """
    t = np.frombuffer(t_bytes)
    x, y = t * t, (1.0 - t) * (1.0 + t)
    basis = np.empty((4, t.size))
    np.multiply(y, y, out=basis[1])
    np.multiply(basis[1], y, out=basis[0])
    basis[1] *= 3.0 * x
    np.multiply(x, x, out=basis[3])
    np.multiply(3.0 * y, basis[3], out=basis[2])
    basis[3] *= x
    basis.setflags(write=False)
    return basis


# Cubic Bernstein coefficients in x from quadratic ones q: _X @ q are those of
# x q, _Y @ q those of (1 - x) q, and (_X + _Y) @ q those of q itself.
_X = np.array([[0.0, 0.0, 0.0], [1.0 / 3.0, 0.0, 0.0], [0.0, 2.0 / 3.0, 0.0], [0.0, 0.0, 1.0]])
_Y = np.array([[1.0, 0.0, 0.0], [0.0, 2.0 / 3.0, 0.0], [0.0, 0.0, 1.0 / 3.0], [0.0, 0.0, 0.0]])


def _cavity_map(kind: FieldKind) -> np.ndarray:
    """(8, 14) map from the parts of `_cavity_coefficients` to the numerator's and the denominator's coefficients."""
    a, p = {
        FieldKind.E_SQUARED: (-_X, _X + 2.0 * _Y),  # -x A + (2 - x) N M
        FieldKind.B_SQUARED: (_X + 2.0 * _Y, -_X),  # (2 - x) A - x N M
        FieldKind.ENERGY_DENSITY: (_Y, _Y),  # (1 - x)(A + N M)
    }[kind]
    m = np.zeros((8, 14))
    m[:4, 0:3] = m[:4, 3:6] = -_X
    # the envelope parts carry twice the envelope; N M = (1, w^2/wp^2, w^2/wp^2)
    m[:4, 6:9], m[:4, 9:11] = -0.5 * a, 0.5 * p @ [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    m[:4] *= CAVITY_PREFACTOR
    m[4:, 11:14] = _X + _Y
    return m


def _single_map(kind: FieldKind) -> np.ndarray:
    """(8, 7) map from the parts of `_single_coefficients` to the numerator's and the denominator's coefficients."""
    quadratic = np.zeros((3, 7))
    if kind is FieldKind.E_SQUARED:  # (2, (1 + 2(1 - b) - r)/2, (1 - b) - r M_1)
        quadratic[:, :4] = [[2.0, 0.0, 0.0, 0.0], [0.5, 1.0, 0.5, 0.0], [0.0, 1.0, 0.0, 1.0]]
    elif kind is FieldKind.B_SQUARED:  # (2r, (r (2 M_1 + 1) - 1)/2, r M_1 - (1 - b))
        quadratic[:, :4] = [[0.0, 0.0, -2.0, 0.0], [-0.5, 0.0, -0.5, -1.0], [0.0, -1.0, 0.0, -1.0]]
    else:  # (2b, 0, 0)
        quadratic[0, 4] = 2.0
    m = np.zeros((8, 7))
    m[:4, :5] = SINGLE_PREFACTOR * (_X + _Y) @ quadratic[:, :5]
    m[4:, 5:] = (_X + _Y) @ [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]  # M = (1, (1 + M_1)/2, M_1)
    return m


_CAVITY_MAPS = {kind: _cavity_map(kind) for kind in FieldKind}
_SINGLE_MAPS = {kind: _single_map(kind) for kind in FieldKind}


def _on_grid(wp2: np.ndarray, u_rows: np.ndarray):
    """wp^2 (K, 1) and the rows (m, n_u) on the (K, n_u) grid, stacked; then w^2 = u^2 + wp^2, w and s = u + w.

    u_rows[0] is u. Every later step is an operation between arrays of one
    shape, numpy's fast case. In these terms r = -wp^2/s^2 and r' = N/M
    with N = 1 - b x, M = 1 + c x, b = u/s and c = u s/wp^2, so that
    1 - b = w/s, 1 + r = 2b, c + b = 2uw/wp^2, c - b = 2u^2/wp^2 and
    (1 + c)(1 - b) = 1 + (c - b)/2 = w^2/wp^2: every piece is a product, a
    quotient or a sum of positive terms.
    """
    grid = np.empty((1 + u_rows.shape[0], wp2.shape[0], u_rows.shape[1]))
    grid[0] = wp2
    grid[1:] = u_rows[:, None, :]
    u = grid[1]
    w2 = u * u + grid[0]
    w = np.sqrt(w2)
    return grid, w2, w, u + w


def _cavity_coefficients(kind_map: np.ndarray, wp2: np.ndarray, rates: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Cubic Bernstein coefficients in x = t^2 of a cavity integrand's numerator and denominator, (8, K n_u).

    ``rates`` holds -2a, -2(a - z) and -2z. With r' = N/M (`_on_grid`),
    the t-dependent denominator is G = M^2 D' = (M - N)(M + N) + (1 - e^{-2ua}) N^2,
    where M - N = (c + b) x and M + N = 2 + (c - b) x, so every part of G is
    positive. Then r'/D' = N M/G and r'^2 e^{-2ua}/D' = e^{-2ua} N^2/G. On
    the u axis D/(-r) = 2(c + b) - r (1 - e^{-2ua}) =: E, so r/D = -1/E and
    r^2 e^{-2ua}/D = -r e^{-2ua}/E, and the brackets times G are

        constant:   -x H,                 H = (-r e^{-2ua}/E) G + e^{-2ua} N^2 >= 0
        E^2:        -x A + (2 - x) N M,   A = -G/E <= 0
        B^2:        (2 - x) A - x N M
        U:          (1 - x)(A + N M)

    The numerator is CAVITY_PREFACTOR u^3 (constant + envelope * position),
    the prefactor applied by the map. The 14 parts, each sign-definite, are
    the quadratic coefficients of these weighted pieces and of G; one
    product with `_cavity_map` combines them, so the only cancellation is
    the one between parts of opposite sign that the brackets carry.
    """
    exponents = rates * u
    decay = np.exp(exponents)
    u_rows = np.empty((4, u.size))
    u_rows[0] = u
    np.negative(np.expm1(exponents[0]), out=u_rows[1])  # 1 - e^{-2ua}
    np.multiply(u * u, u, out=u_rows[3])
    np.multiply(u_rows[3], decay[0], out=u_rows[2])  # u^3 e^{-2ua}
    u_rows[3] *= decay[1] + decay[2]  # u^3 times twice the envelope; the map halves it
    (wp2, u, em, w_damp, w_env), w2, w, s = _on_grid(wp2, u_rows)
    n1 = w / s
    minus_r = wp2 / (s * s)
    c_plus_b = 2.0 * (u * w) / wp2
    omega = w2 / wp2
    e = (c_plus_b + c_plus_b) + minus_r * em
    parts = np.empty((14,) + w.shape)
    g = parts[11:]
    g[0] = em
    np.add(c_plus_b, em * n1, out=g[1])
    n_square = n1 * n1
    np.add((omega + omega) * c_plus_b, em * n_square, out=g[2])  # (c + b)(2 + c - b) + em (1 - b)^2
    np.multiply(g, w_damp * minus_r / e, out=parts[0:3])
    parts[3] = w_damp
    np.multiply(w_damp, n1, out=parts[4])
    np.multiply(w_damp, n_square, out=parts[5])
    np.multiply(g, w_env / e, out=parts[6:9])
    parts[9] = w_env
    np.multiply(w_env, omega, out=parts[10])
    return kind_map @ parts.reshape(14, -1)


def _single_coefficients(kind_map: np.ndarray, wp2: np.ndarray, rate: float, u: np.ndarray) -> np.ndarray:
    """Cubic Bernstein coefficients in x = t^2 of a single-interface integrand's numerator and denominator, (8, K n_u).

    ``rate`` is -2z. With r' = N/M (`_on_grid`), the brackets times M are

        E^2:   -x r M + (2 - x) N >= 0
        B^2:   (2 - x) r M - x N <= 0
        U:     (1 - x)(r M + N) = 2b (1 - x)^2 >= 0

    the last because 1 + r = 2b and r c - b = -2b. The numerator carries
    SINGLE_PREFACTOR w, w = u^3 e^{-2uz}, the prefactor applied by the map.
    The 7 parts are w times 1, 1 - b, -r, -r M_1 and b, with M_1 = 1 + c,
    then 1 and M_1 for the denominator; one product with `_single_map`
    combines them.
    """
    u_rows = np.empty((2, u.size))
    u_rows[0] = u
    np.multiply((u * u) * u, np.exp(rate * u), out=u_rows[1])
    (wp2, u, weight), _, w, s = _on_grid(wp2, u_rows)
    parts = np.empty((7,) + w.shape)
    parts[0], parts[5] = weight, 1.0
    np.multiply(weight, w / s, out=parts[1])
    np.multiply(weight, wp2 / (s * s), out=parts[2])
    np.add(1.0, (u * s) / wp2, out=parts[6])
    np.multiply(parts[2], parts[6], out=parts[3])
    np.multiply(weight, u / s, out=parts[4])
    return kind_map @ parts.reshape(7, -1)


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
