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

Every integrand is a vectorized closure of `integrand_function`; scalar u
and t evaluate it at one node and give a float. The position is checked
where it enters: when a field closure is built, and once for a whole
profile by the decay scales it hands to the engine.

For a Drude mirror every bracket is a rational function of x = t^2 whose
coefficients depend on u alone: r' = (1 - b x)/(1 + c x), with b and c
functions of u and the plasma frequency, while r depends on u only. For
their t integrals the Drude integrands, fields and bracket form alike, are
therefore written as a numerator, a polynomial of degree 3 in x, over a
denominator. The numerator's coefficients in the Bernstein basis
x^k (1 - x)^(3-k) are formed on the u axis from sign-definite parts.
Unlike the monomial basis, whose coefficients cancel catastrophically at
large u and t near 1, the Bernstein form loses no more accuracy than the
bracket arithmetic (Farouki and Rajan, Comput. Aided Geom. Des. 4, 1987).

This form gives the t integral exactly. The denominator is 1 + c x
outside one mirror and a product of two such factors in a cavity, so the
integral of each basis polynomial over it is elementary: arctangents and a
short recurrence where a pole of the denominator lies near t = 0, and a
fixed Gauss-Legendre rule where every pole is far from [0, 1]. With the
basis integrals K_j > 0, a row's integral is sum_j beta_j K_j for the
numerator's coefficients beta_j, and sum_j |beta_j| K_j bounds the
integral of its magnitude.

For a constant permittivity, a perfect conductor and vacuum, r and r' do
not depend on u, and a fixed rule on t in [0, 1] integrates every bracket
exactly to roundoff (`_t_rule`): two Gauss-Legendre points for the
polynomial brackets of a perfect conductor and of vacuum, and a composite
Gauss-Legendre rule in s, t = sinh(s)/sqrt(eps - 1), for a constant
permittivity. Outside one mirror the brackets depend on t alone, so their
t integrals are taken once per model.

Every closure returns, when called with t = `quadrature.T_INTEGRAL`, the
exact t integral at each u and a bound on the integral of its magnitude,
and the engine integrates it on the u axis alone. On a (u, t) grid every
closure, whatever the model, takes its values from one bracket arithmetic
(`_grid_values`): the brackets of `single_bracket` and `cavity_terms` on
the cancellation-free reflection factors of `dielectric`, times the
prefactor and the envelope. `quadrature.integrate_fixed_grid` integrates
them as the independent check of the t integrals, with none of the
Bernstein maps, kernels or t rules above.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .dielectric import ConstantEpsilon, DielectricModel, Drude, PerfectConductor, Vacuum, _reflection_factors
from .errors import DomainError, checked_float, real_array
from .quadrature import _NODE_CAP, T_INTEGRAL, T_INTEGRAL_DTYPE, _rule_rows, _t_rows

__all__ = [
    "SingleInterface",
    "Cavity",
    "Geometry",
    "FieldKind",
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
        object.__setattr__(self, "width", checked_float(self.width, "cavity width"))


Geometry = Union[SingleInterface, Cavity]


class FieldKind(Enum):
    """Which quadratic field expectation an integrand assembles."""

    E_SQUARED = "e2"
    B_SQUARED = "b2"
    ENERGY_DENSITY = "u"


def single_bracket(kind: FieldKind, r, rp, t):
    """Polarization weight of the single-interface integrand.

    Takes reflection arrays (r, rp) and t directly so that callers can
    probe symmetry properties (swapping r and rp maps the E^2 bracket
    onto the B^2 bracket).
    """
    tt = t * t
    if kind is FieldKind.E_SQUARED:
        return -tt * r + (2.0 - tt) * rp
    if kind is FieldKind.B_SQUARED:
        return (2.0 - tt) * r - tt * rp
    if kind is FieldKind.ENERGY_DENSITY:
        return (1.0 - tt) * (r + rp)
    raise TypeError(f"unknown field kind {kind!r}")


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
    The constant bracket is the same for every kind. The position bracket
    is `single_bracket` evaluated on the multiply reflected pair r/D, r'/D'.
    No growing exponential is ever formed: the geometric denominators use

        D = 1 - r^2 e^{-2ua} = (1 - r)(1 + r) + r^2 (1 - e^{-2ua})

    with the last factor from expm1.
    """
    em = -np.expm1(-2.0 * u * a)  # 1 - exp(-2ua), accurate for small ua
    damp = np.exp(-2.0 * u * a)
    dr = (1.0 - r) * (1.0 + r) + r * r * em
    drp = (1.0 - rp) * (1.0 + rp) + rp * rp * em
    term_constant = -t * t * (r * r * damp / dr + rp * rp * damp / drp)
    return term_constant, single_bracket(kind, r / dr, rp / drp, t) * _cavity_envelope(u, a, z)


def _cavity_envelope(u, a, z):
    """e^{-ua} cosh(u(2z - a)), formed as (e^{-2u(a-z)} + e^{-2uz}) / 2 so no exponential grows."""
    return 0.5 * (np.exp(-2.0 * u * (a - z)) + np.exp(-2.0 * u * z))


def decay_scale_for(geometry: Geometry, z: float) -> float:
    """Exponential decay scale of the integrand in u: 2z, or 2 min(z, a-z); DomainError unless z is in the vacuum."""
    return float(_checked_positions(geometry, [z])[1][0])


def _checked_positions(geometry: Geometry, z_values) -> tuple[np.ndarray, np.ndarray]:
    """A sequence of positions as floats and their decay scales, after checking that each lies in the vacuum.

    A float array is taken as it is; otherwise one pass over the elements
    refuses anything but real numbers (bool included). Array checks then
    require z > 0, or 0 < z < a in a cavity, which also refuses NaN and
    infinities. The error names the first position that fails.
    """
    if isinstance(geometry, SingleInterface):
        a = math.inf
    elif isinstance(geometry, Cavity):
        a = geometry.width
    else:
        raise TypeError(f"unknown geometry {geometry!r}")
    z = real_array(z_values)
    inside = (0.0 < z) & (z < a)
    if not inside.all():
        bad = z_values[int(np.argmin(inside))]
        if isinstance(geometry, SingleInterface):
            raise DomainError(f"field point must lie in the vacuum region, got z = {bad!r}")
        raise DomainError(f"field point must lie strictly inside the gap, got z = {bad!r} with a = {a!r}")
    with np.errstate(over="ignore"):  # past half the float range the scale is inf, which the engine refuses
        return z, 2.0 * np.minimum(z, a - z)


def position_envelope(geometry: Geometry, z_values) -> Callable[[np.ndarray], np.ndarray]:
    """Weight of the position brackets at each z, as a function of u.

    The returned callable maps u of shape (n,) to an array of shape
    (len(z_values), n): exp(-2uz) outside a single interface, and
    (exp(-2u(a-z)) + exp(-2uz)) / 2 inside a cavity. Positions are not
    validated here; the engine's callers check them once, with the decay
    scales they compute for it (`decay_scale_for`).
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
    integrand at position ``z`` at the nodes u > 0 and t in [0, 1], which
    broadcast against each other: u of shape (n, 1) against t of shape
    (1, m) gives the (n, m) grid, and u and t of one shape give the values
    node by node. The values have the broadcast shape, or are a scalar on
    one node.

    With a field ``kind`` and a sequence of K Drude models it returns the
    family ``(None, f_1, ..., f_K)`` instead, f_k being that integrand for
    the k-th model at the same nodes, so one call evaluates every member.
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

    Every closure also takes ``t = quadrature.T_INTEGRAL``: it then
    returns, in place of each array above, the exact integral over t in
    [0, 1] at each u and a bound on the integral of its magnitude, as an
    array of u's shape and dtype ``quadrature.T_INTEGRAL_DTYPE``.
    """
    family = isinstance(model, (list, tuple))
    if kind is None:
        if z is not None:
            raise DomainError("the bracket form does not depend on z; pass z=None")
        if family:
            raise DomainError("the bracket form takes one dielectric model")
    else:
        if family and not (model and all(isinstance(member, Drude) for member in model)):
            raise DomainError(f"a family of integrands takes one or more Drude models, got {model!r}")
        _checked_positions(geometry, [z])
    models = list(model) if family else [model]
    if family or isinstance(model, Drude):
        exact = _drude_rows(kind, geometry, [member.plasma_frequency for member in models], z)
    else:
        exact = _undispersed_rows(kind, geometry, model, z)

    def f(u, t):
        rows = exact(np.asarray(u, dtype=float)) if t is T_INTEGRAL else _grid_values(kind, geometry, models, z, u, t)
        if kind is None:
            return tuple(rows)
        return (None, *rows) if family else rows[0]

    return f


def _grid_values(kind: FieldKind | None, geometry: Geometry, models: list, z, u, t) -> list:
    """The values of a closure of `integrand_function` at the nodes (u, t): each member's ``kind`` field at a checked z, or with kind=None the brackets.

    Every model takes the bracket arithmetic of `_brackets`, times the
    prefactor u^3, which the constant bracket takes before its division,
    and the envelope of `position_envelope`.
    """
    u, t = np.asarray(u, dtype=float), np.asarray(t, dtype=float)
    kinds = (FieldKind.E_SQUARED, FieldKind.B_SQUARED) if kind is None else (kind,)
    if isinstance(geometry, SingleInterface):
        a, weight = None, SINGLE_PREFACTOR * u**3
        envelope = None if kind is None else np.exp(-2.0 * u * z)
    else:
        a, weight = geometry.width, CAVITY_PREFACTOR * u**3
        envelope = None if kind is None else _cavity_envelope(u, a, z)
    fields = []
    for model in models:
        constant, *positions = _brackets(kinds, model, u, t, a, weight)
        positions = [weight * position for position in positions]
        if kind is None:
            return [constant, *positions]
        field = positions[0] * envelope
        fields.append(field if constant is None else constant + field)
    return fields


def _drude_rows(kind: FieldKind | None, geometry: Geometry, plasma_frequencies: list, z):
    """The exact t integrals of Drude integrands, u -> rows of u's shape: the ``kind`` field at a checked z of K models, or with kind=None the brackets of one model.

    Each numerator's Bernstein coefficients in x = t^2 (`_cavity_coefficients`,
    `_single_coefficients`) are summed against the t integrals of the basis
    over the denominator, formed exactly from its linear factors
    (`_single_kernel`, `_cavity_kernel`). The bracket form is the field form
    with a unit envelope; outside one mirror its constant row is None.
    """
    coefficients, kernel = _drude_parts(kind, geometry, plasma_frequencies, z)

    def rows(u):
        numerator, factors = coefficients(u.ravel())
        terms = np.empty(numerator.shape + (2,))
        np.multiply(numerator, kernel(*factors), out=terms[..., 0])
        np.abs(terms[..., 0], out=terms[..., 1])  # the magnitude's terms, as the weights are positive
        # a sum over a leading axis adds the four terms in order, for every row alike
        sums = np.add.reduce(terms, axis=1)
        out = list(sums.view(T_INTEGRAL_DTYPE).reshape(len(sums) * len(plasma_frequencies), *u.shape))
        return [None, *out] if kind is None and isinstance(geometry, SingleInterface) else out

    return rows


def _drude_parts(kind: FieldKind | None, geometry: Geometry, plasma_frequencies: list, z):
    """The coefficient function of `_drude_rows`, u -> (numerators' coefficients, the denominator's factors), and its kernel."""
    wp2 = np.square(np.array(plasma_frequencies, dtype=float))[:, None]
    if isinstance(geometry, SingleInterface):
        rate = 0.0 if kind is None else -2.0 * z
        return functools.partial(_single_coefficients, _SINGLE_MAPS[kind], wp2, rate), _single_kernel
    a = geometry.width
    rates = np.array([-a, -2.0 * a] + ([0.0, 0.0] if kind is None else [-2.0 * (a - z), -2.0 * z]))[:, None]
    return functools.partial(_cavity_coefficients, _CAVITY_MAPS[kind], wp2, rates), _cavity_kernel


def _bernstein_basis(t: np.ndarray) -> np.ndarray:
    """The cubic Bernstein basis in x = t^2 at the nodes t (n_t,), (4, n_t): (1-x)^3, 3x(1-x)^2, 3x^2(1-x), x^3.

    1 - x is formed as (1 - t)(1 + t), accurate up to t = 1.
    """
    x, y = t * t, (1.0 - t) * (1.0 + t)
    basis = np.empty((4, t.size))
    np.multiply(y, y, out=basis[1])
    np.multiply(basis[1], y, out=basis[0])
    basis[1] *= 3.0 * x
    np.multiply(x, x, out=basis[3])
    np.multiply(3.0 * y, basis[3], out=basis[2])
    basis[3] *= x
    return basis


# Cubic Bernstein coefficients in x from quadratic ones q: _X @ q are those of
# x q, _Y @ q those of (1 - x) q, and (_X + _Y) @ q those of q itself.
_X = np.array([[0.0, 0.0, 0.0], [1.0 / 3.0, 0.0, 0.0], [0.0, 2.0 / 3.0, 0.0], [0.0, 0.0, 1.0]])
_Y = np.array([[1.0, 0.0, 0.0], [0.0, 2.0 / 3.0, 0.0], [0.0, 0.0, 1.0 / 3.0], [0.0, 0.0, 0.0]])


def _cavity_map(kind: FieldKind | None) -> np.ndarray:
    """(4, 11) map from the parts of `_cavity_coefficients` to the numerator's coefficients.

    With kind=None the numerators are the constant, E^2 and B^2 brackets', (12, 11).
    """
    constant = np.zeros((4, 11))
    constant[:, 0:3] = constant[:, 3:6] = -_X

    def position(kind):
        a, p = {
            FieldKind.E_SQUARED: (-_X, _X + 2.0 * _Y),  # -x A + (2 - x) N M
            FieldKind.B_SQUARED: (_X + 2.0 * _Y, -_X),  # (2 - x) A - x N M
            FieldKind.ENERGY_DENSITY: (_Y, _Y),  # (1 - x)(A + N M)
        }[kind]
        m = np.zeros((4, 11))
        # the envelope parts carry twice the envelope; N M = (1, w^2/wp^2, w^2/wp^2)
        m[:, 6:9], m[:, 9:11] = -0.5 * a, 0.5 * p @ [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        return m

    if kind is None:
        numerators = [constant, position(FieldKind.E_SQUARED), position(FieldKind.B_SQUARED)]
    else:
        numerators = [constant + position(kind)]
    return np.vstack([CAVITY_PREFACTOR * m for m in numerators])


def _single_map(kind: FieldKind | None) -> np.ndarray:
    """(4, 5) map from the parts of `_single_coefficients` to the numerator's coefficients.

    With kind=None the numerators are the E^2 and B^2 brackets', (8, 5).
    """
    quadratics = []
    for field in (FieldKind.E_SQUARED, FieldKind.B_SQUARED) if kind is None else (kind,):
        quadratic = np.zeros((3, 5))
        if field is FieldKind.E_SQUARED:  # (2, (1 + 2(1 - b) - r)/2, (1 - b) - r M_1)
            quadratic[:, :4] = [[2.0, 0.0, 0.0, 0.0], [0.5, 1.0, 0.5, 0.0], [0.0, 1.0, 0.0, 1.0]]
        elif field is FieldKind.B_SQUARED:  # (2r, (r (2 M_1 + 1) - 1)/2, r M_1 - (1 - b))
            quadratic[:, :4] = [[0.0, 0.0, -2.0, 0.0], [-0.5, 0.0, -0.5, -1.0], [0.0, -1.0, 0.0, -1.0]]
        else:  # (2b, 0, 0)
            quadratic[0, 4] = 2.0
        quadratics.append(quadratic)
    return np.vstack([SINGLE_PREFACTOR * (_X + _Y) @ quadratic for quadratic in quadratics])


_CAVITY_MAPS = {kind: _cavity_map(kind) for kind in (*FieldKind, None)}
_SINGLE_MAPS = {kind: _single_map(kind) for kind in (*FieldKind, None)}


# Where the rows or the columns of a matrix product vary with the call, they
# come in whole multiples of _TILE, padded where the operand is allocated and
# sliced off after the product. A BLAS kernel may round the entries of a
# partial tile, or of a matrix-vector product, unlike those of whole tiles,
# and kernels differ in where they do; in whole tiles an entry keeps its bits
# whatever the size of the call, the block or the family it is in (tested
# under OpenBLAS's SkylakeX, Haswell, Prescott and Sandybridge kernels).
_TILE = 16


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


def _cavity_coefficients(kind_map: np.ndarray, wp2: np.ndarray, rates: np.ndarray, u: np.ndarray):
    """Cubic Bernstein coefficients in x = t^2 of cavity numerators, (rows, 4, K n_u), and the factors of their denominator.

    ``rates`` holds -a, -2a and the envelope's -2(a - z) and -2z, or 0 and
    0 for the brackets. With r' = N/M (`_on_grid`) and eps = e^{-ua}, the
    t-dependent denominator is

        G = M^2 D' = M^2 - eps^2 N^2 = (M - eps N)(M + eps N)
          = (alpha_1 + gamma_1 x)(alpha_2 + gamma_2 x),

    alpha_1 = 1 - eps, gamma_1 = c + eps b, alpha_2 = 1 + eps and
    gamma_2 = (c - b) + b (1 - eps), each a sum of positive terms; so is
    alpha_2 gamma_1 - alpha_1 gamma_2 = 2 eps (c + b), the factors'
    ``spread``. The factors are returned as these five (K n_u,) arrays.
    Then r'/D' = N M/G and r'^2 e^{-2ua}/D' = e^{-2ua} N^2/G. On the u axis
    D/(-r) = 2(c + b) - r (1 - e^{-2ua}) =: E, so r/D = -1/E and
    r^2 e^{-2ua}/D = -r e^{-2ua}/E, and the brackets times G are

        constant:   -x H,                 H = (-r e^{-2ua}/E) G + e^{-2ua} N^2 >= 0
        E^2:        -x A + (2 - x) N M,   A = -G/E <= 0
        B^2:        (2 - x) A - x N M
        U:          (1 - x)(A + N M)

    with G = (M - N)(M + N) + (1 - e^{-2ua}) N^2 in its quadratic
    Bernstein coefficients, M - N = (c + b) x and M + N = 2 + (c - b) x.
    The numerator is CAVITY_PREFACTOR u^3 (constant + envelope * position),
    the prefactor applied by the map. The 11 parts, each sign-definite, are
    the quadratic coefficients of these weighted pieces; one product with
    `_cavity_map` combines them, so the only cancellation is the one
    between parts of opposite sign that the brackets carry.
    """
    exponents = rates * u
    decay = np.exp(exponents)
    u_rows = np.empty((6, u.size))
    u_rows[0] = u
    np.negative(np.expm1(exponents[:2]), out=u_rows[1:3])  # 1 - eps and 1 - e^{-2ua}
    np.multiply(u * u, u, out=u_rows[4])
    np.multiply(u_rows[4], decay[1], out=u_rows[3])  # u^3 e^{-2ua}
    u_rows[4] *= decay[2] + decay[3]  # u^3 times twice the envelope; the map halves it
    u_rows[5] = decay[0]  # eps
    (wp2, u, alpha1, em, w_damp, w_env, eps), w2, w, s = _on_grid(wp2, u_rows)
    n1 = w / s
    b = u / s
    minus_r = wp2 / (s * s)
    c_plus_b = 2.0 * (u * w) / wp2
    twice_c_plus_b = c_plus_b + c_plus_b
    c = (u * s) / wp2
    omega = w2 / wp2
    e = twice_c_plus_b + minus_r * em
    padded = np.empty((11, w.size + -w.size % _TILE))  # whole tiles of columns
    padded[:, w.size :], parts = 0.0, padded[:, : w.size].reshape((11,) + w.shape)
    g = np.empty((3,) + w.shape)
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
    coefficients = (kind_map @ padded)[:, : w.size].reshape(len(kind_map) // 4, 4, w.size)
    gamma1 = c + eps * b
    gamma2 = c_plus_b * (u / w) + b * alpha1  # c - b = 2u^2/wp^2
    factors = (alpha1, gamma1, 1.0 + eps, gamma2, eps * twice_c_plus_b)
    return coefficients, tuple(factor.ravel() for factor in factors)


def _single_coefficients(kind_map: np.ndarray, wp2: np.ndarray, rate: float, u: np.ndarray):
    """Cubic Bernstein coefficients in x = t^2 of single-interface numerators, (rows, 4, K n_u), and c of their denominator M = 1 + c x.

    ``rate`` is -2z, or 0 for the brackets. With r' = N/M (`_on_grid`),
    the brackets times M are

        E^2:   -x r M + (2 - x) N >= 0
        B^2:   (2 - x) r M - x N <= 0
        U:     (1 - x)(r M + N) = 2b (1 - x)^2 >= 0

    the last because 1 + r = 2b and r c - b = -2b. The numerator carries
    SINGLE_PREFACTOR w, w = u^3 e^{-2uz}, the prefactor applied by the map.
    The 5 parts are w times 1, 1 - b, -r, -r M_1 and b, with M_1 = 1 + c;
    one product with `_single_map` combines them.
    """
    u_rows = np.empty((2, u.size))
    u_rows[0] = u
    np.multiply((u * u) * u, np.exp(rate * u), out=u_rows[1])
    (wp2, u, weight), _, w, s = _on_grid(wp2, u_rows)
    c = (u * s) / wp2
    padded = np.empty((5, w.size + -w.size % _TILE))  # whole tiles of columns
    padded[:, w.size :], parts = 0.0, padded[:, : w.size].reshape((5,) + w.shape)
    parts[0] = weight
    np.multiply(weight, w / s, out=parts[1])
    np.multiply(weight, wp2 / (s * s), out=parts[2])
    np.multiply(parts[2], 1.0 + c, out=parts[3])
    np.multiply(weight, u / s, out=parts[4])
    return (kind_map @ padded)[:, : w.size].reshape(len(kind_map) // 4, 4, w.size), (c.ravel(),)


# The t integrals of the Bernstein basis over a denominator whose nearest
# pole lies at t^2 = -p are taken by a Gauss-Legendre rule of 16 points on
# each of [0, 1/4] and [1/4, 1] from p = _GAUSS_POLE up, and in closed form
# nearer. Against mpmath, with numpy's nodes and weights, the rule stays
# within 5 ulps of every integral from p = 0.03 up, double poles included (16
# ulps at p = 0.02, 360 at 0.015; with the panels meeting at 1/2 instead, 40
# ulps at p = 0.05), and the closed forms stay within 6 ulps below p = 0.04.
_GAUSS_POLE = 0.04
# Most columns `_gauss_columns` takes through the rule at once: its (32, columns)
# and (3, columns) temporaries then hold at most _NODE_CAP numbers each, 128 KiB.
_GAUSS_BLOCK = _NODE_CAP // 32


@functools.cache
def _gauss_rule() -> Tuple[np.ndarray, np.ndarray]:
    """The powers 1, x, x^2 of x = t^2 at the nodes of the Gauss-Legendre rule, (32, 3), and the Bernstein basis there times the weights, (4, 32)."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    lo, hi = np.array([[0.0], [0.25]]), np.array([[0.25], [1.0]])
    t = (0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes).ravel()
    rule = (np.stack((np.ones_like(t), t * t, np.square(t * t)), axis=1), _bernstein_basis(t) * (0.5 * (hi - lo) * weights).ravel())
    for array in rule:
        array.setflags(write=False)
    return rule


def _gauss_columns(scale: np.ndarray, p1: np.ndarray, p2: np.ndarray | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """The kernel (4, n) by `_gauss_rule`, and the mask of the columns whose nearest pole p1 is below _GAUSS_POLE; unfilled if all are.

    A column takes scale * int_0^1 B_j(t^2) / ((t^2 + p1)(t^2 + p2)) dt, or
    with no p2 over t^2 + p1 alone; the callers overwrite the masked columns
    with closed forms (p1 >= 0 and x > 0 keep them finite). In contiguous
    blocks of at most _GAUSS_BLOCK columns, the powers of x times the
    coefficients (p1 p2, p1 + p2, 1), or (p1, 1), give the denominators, sums
    of positive terms, and the basis times their reciprocals the kernel: both
    products take whole tiles (_TILE) of columns, the pad's denominators 1, so
    a column keeps its bits in any block.
    """
    kernel, near = np.empty((4, p1.size)), p1 < _GAUSS_POLE
    if near.all():
        return kernel, near
    powers, basis = _gauss_rule()
    poles = np.stack([p1] if p2 is None else [p1 * p2, p1 + p2])
    for start in range(0, near.size, _GAUSS_BLOCK):
        columns = slice(start, start + _GAUSS_BLOCK)
        n = min(_GAUSS_BLOCK, near.size - start)
        coefficients = np.zeros((len(poles) + 1, n + -n % _TILE))  # whole tiles of columns
        coefficients[0, n:] = coefficients[-1, :n] = 1.0  # a pad column's denominator is 1
        coefficients[:-1, :n] = poles[:, columns]
        denominator = powers[:, : len(coefficients)] @ coefficients
        sums = basis @ np.divide(1.0, denominator, out=denominator)
        np.multiply(sums[:, :n], scale[columns], out=kernel[:, columns])
    return kernel, near


def _from_moments(m0, m1, m2, m3) -> np.ndarray:
    """Integrals of the cubic Bernstein basis in x, (4, n), from those of 1, x, x^2 and x^3 against the same weight."""
    return np.stack(((m0 - 3.0 * m1) + (3.0 * m2 - m3), 3.0 * ((m1 - m2) - (m2 - m3)), 3.0 * (m2 - m3), m3))


def _single_kernel(c: np.ndarray) -> np.ndarray:
    """K_j = int_0^1 B_j(t^2) / (1 + c t^2) dt of the cubic Bernstein basis B_j, (4, n), for c > 0.

    The pole lies at t^2 = -1/c. Where `_gauss_rule` does not reach it, the
    moments J_k = int_0^1 t^{2k} / (1 + c t^2) dt run up from
    J_0 = atan(sqrt c)/sqrt c by J_k = (1/(2k - 1) - J_{k-1})/c, which
    shrinks the error carried from J_{k-1} by c > 1/_GAUSS_POLE = 25 at
    every step.
    """
    p = 1.0 / c
    kernel, near = _gauss_columns(p, p)
    if near.any():
        c = c[near]
        root = np.sqrt(c)
        j0 = np.arctan(root) / root
        j1 = (1.0 - j0) / c
        j2 = (1.0 / 3.0 - j1) / c
        kernel[:, near] = _from_moments(j0, j1, j2, (0.2 - j2) / c)
    return kernel


def _cavity_kernel(alpha1, gamma1, alpha2, gamma2, spread) -> np.ndarray:
    """int_0^1 B_j(t^2) / ((alpha_1 + gamma_1 t^2)(alpha_2 + gamma_2 t^2)) dt of the cubic Bernstein basis, (4, n).

    The factors (`_cavity_coefficients`) vanish at t^2 = -p1 and -p2,
    p1 = alpha_1/gamma_1 < p2 = alpha_2/gamma_2, and p2 - p1 = d =
    spread/(gamma_1 gamma_2). `_gauss_rule` takes every column whose p1 it
    reaches; nearer, two closed forms cover the cases:

    - d > 1/2: the poles are apart, and 1/G = (gamma_1/(alpha_1 + gamma_1 x)
      - gamma_2/(alpha_2 + gamma_2 x))/spread splits the integral into two
      of `_single_kernel`, losing at most a factor (1 + p2)/d, about 3, to
      the subtraction. Generic partial fractions fail as eps -> 0, where the
      poles merge; this split is used only while they stay apart.
    - otherwise, with q_i = sqrt(p_i) and delta = (q2 - q1)/(1 + q1 q2),
      formed from d without a subtraction, and atan(delta)/delta -> 1 as
      delta -> 0, the moments I_k = int_0^1 t^{2k} / ((t^2 + p1)(t^2 + p2)) dt
      are

          I_0 = [atan(delta)/((q2 - q1) q1) + atan(1/q2)/(q1 q2)]/(q1 + q2)
          I_1 = [atan(1/q2) - q1 atan(delta)/(q2 - q1)]/(q1 + q2)
          I_k = 1/(2k - 3) - (p1 + p2) I_{k-1} - p1 p2 I_{k-2},

      and the integrals are theirs over gamma_1 gamma_2; p1 + p2 < 0.58
      keeps the recurrence stable.
    """
    scale, p1, p2 = gamma1 * gamma2, alpha1 / gamma1, alpha2 / gamma2
    kernel, near = _gauss_columns(1.0 / scale, p1, p2)
    if not near.any():
        return kernel
    apart = near & (spread > 0.5 * scale)
    if apart.any():
        c1, c2 = gamma1[apart] / alpha1[apart], gamma2[apart] / alpha2[apart]
        kernel[:, apart] = (c1 * _single_kernel(c1) - c2 * _single_kernel(c2)) / spread[apart]
    close = near & ~apart
    if close.any():
        scale = scale[close]
        p1, p2, d = p1[close], p2[close], spread[close] / scale
        q1, q2 = np.sqrt(p1), np.sqrt(p2)
        q_sum, q_product = q1 + q2, 1.0 + q1 * q2
        delta = d / q_sum / q_product
        atan_ratio = np.divide(np.arctan(delta), delta, out=np.ones_like(delta), where=delta > 0) / q_product
        atan_far = np.arctan(1.0 / q2)
        i0 = (atan_ratio / q1 + atan_far / (q1 * q2)) / q_sum
        i1 = (atan_far - q1 * atan_ratio) / q_sum
        p_sum, p_product = p1 + p2, p1 * p2
        i2 = 1.0 - p_sum * i1 - p_product * i0
        kernel[:, close] = _from_moments(i0, i1, i2, 1.0 / 3.0 - p_sum * i2 - p_product * i1) / scale
    return kernel


# Gauss-Legendre points per panel of a constant permittivity's t rule (`_t_rule`).
_EPSILON_POINTS = 16


@functools.lru_cache(maxsize=16)
def _t_rule(model: DielectricModel) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (1, m) and weights (m,) of a fixed rule on t in [0, 1] that integrates every bracket of the model exactly, to roundoff.

    A perfect conductor's brackets, and vacuum's, are polynomials of degree
    2 in t at each u, which the 2-point Gauss-Legendre rule integrates
    exactly. For a constant permittivity the rule is a composite
    Gauss-Legendre rule of _EPSILON_POINTS points per panel in s, with
    t = sinh(s)/sqrt(eps - 1), on [0, asinh(sqrt(eps - 1))] in equal
    panels at most 1 wide. In s, q = cosh s, r = -tanh^2(s/2) and
    r' = (eps - cosh s)/(eps + cosh s); on the strip |Im s| < pi/2 both stay
    inside the unit disc, so no pole of r, r', 1/D or 1/D' lies nearer the
    real axis than pi/2, for every u > 0 and eps > 1. On a panel of width 1
    the rule's error then falls like (pi + sqrt(pi^2 + 1))^-32, about
    1e-26: one fixed rule serves every u, and none is chosen at run time.
    """
    if isinstance(model, ConstantEpsilon):
        root = math.sqrt(model.epsilon - 1.0)
        s_max = math.asinh(root)
        panels = max(1, math.ceil(s_max))
        x, w = np.polynomial.legendre.leggauss(_EPSILON_POINTS)
        half = 0.5 * s_max / panels
        s = ((2.0 * np.arange(panels) + 1.0)[:, None] + x) * half
        rule = ((np.sinh(s) / root).reshape(1, -1), (w * half * np.cosh(s) / root).ravel())
    elif isinstance(model, (PerfectConductor, Vacuum)):
        x, w = np.polynomial.legendre.leggauss(2)
        rule = (0.5 * (1.0 + x)[None, :], 0.5 * w)
    else:
        raise TypeError(f"unknown dielectric model {model!r}")
    for array in rule:
        array.setflags(write=False)
    return rule


def _undispersed_rows(kind: FieldKind | None, geometry: Geometry, model: DielectricModel, z):
    """The exact t integrals of a constant-permittivity, perfectly conducting or vacuum integrand, u -> rows of u's shape: the ``kind`` field at a checked z, or with kind=None the brackets.

    The constant and position brackets of `_brackets` are integrated on the
    nodes of `_t_rule`, and so are their absolute values; every one of them
    keeps one sign in t, so these are the integrals of their magnitudes to
    roundoff. A field's row is C + e P with the envelope e >= 0, and its
    magnitude |C| + e |P|, which bounds the integral of |C + e P|. Outside
    one mirror the brackets depend on t alone, times SINGLE_PREFACTOR u^3,
    so their integrals are taken once per model (`_single_rows`); in a
    cavity each call integrates them on the rule's grid with
    `quadrature._rule_rows`, in blocks of at most _NODE_CAP nodes.
    """
    kinds = (FieldKind.E_SQUARED, FieldKind.B_SQUARED) if kind is None else (kind,)
    if isinstance(geometry, SingleInterface):
        rule_rows = _single_rows(model, kinds)

        def single_rows(u):
            w = SINGLE_PREFACTOR * u**3
            if kind is not None:
                w = w * np.exp(-2.0 * u * z)
            out = [(w[..., None] * row).view(T_INTEGRAL_DTYPE)[..., 0] for row in rule_rows]
            return out if kind is not None else [None, *out]

        return single_rows
    if not isinstance(geometry, Cavity):
        raise TypeError(f"unknown geometry {geometry!r}")
    a = geometry.width
    t_rule, weights = _t_rule(model)

    def cavity_rows(u):
        column = u.reshape(-1, 1)
        brackets = _rule_rows(lambda block, t: _brackets(kinds, model, block, t, a), column, t_rule, weights)
        rows = np.stack([row.view(float) for row in brackets])  # (brackets, n, 2)
        rows *= (CAVITY_PREFACTOR * u**3).reshape(1, -1, 1)
        if kind is None:
            return [row.view(T_INTEGRAL_DTYPE).reshape(u.shape) for row in rows]
        const, position = rows
        position *= _cavity_envelope(column, a, z)
        return [(const + position).view(T_INTEGRAL_DTYPE).reshape(u.shape)]

    return cavity_rows


@functools.lru_cache(maxsize=32)
def _single_rows(model: DielectricModel, kinds: tuple) -> np.ndarray:
    """(len(kinds), 2) t integrals of an undispersed model's single-interface brackets and of their magnitudes, read-only."""
    t_rule, weights = _t_rule(model)
    rows = _t_rows(np.concatenate(_brackets(kinds, model, None, t_rule, None)[1:]), weights)
    rows.setflags(write=False)
    return rows


def _brackets(kinds, model: DielectricModel, u, t, a, weight=1.0):
    """The constant bracket times ``weight``, or None outside one mirror (a = None), then each kind's position bracket, without the prefactor.

    The cavity's dressing is that of `cavity_terms`, but with 1 - r^2,
    1 - r'^2 and r + r' from `dielectric._reflection_factors`, which forms
    them without cancellation. The energy density's bracket is
    (1 - t^2)(r + r') outside one mirror and (1 - t^2)(r/D + r'/D') in a
    cavity, from r/D + r'/D' = (r + r')(1 - r r' e^{-2ua})/(D D') with
    r r' <= 0: no sum of nearly opposite terms, as |r| and r' both approach
    1. The E^2 and B^2 brackets add terms of one sign. The constant bracket
    takes the weight into e^{-2ua} before its products and divisions, which
    past u a = 354 round in the subnormal range, so the weight does not
    scale up their roundoff.
    """
    energy_density = FieldKind.ENERGY_DENSITY in kinds
    r, rp, total, square, square_p = _reflection_factors(model, u, t, total=energy_density, squares=a is not None)
    tt = t * t
    constant = None
    if a is not None:
        em = -np.expm1(-2.0 * u * a)  # 1 - exp(-2ua), accurate for small ua
        damp = np.exp(-2.0 * u * a)
        weighted = weight * damp
        dr, drp = square + r * r * em, square_p + rp * rp * em
        constant = -tt * (r * r * weighted / dr + rp * rp * weighted / drp)
        if energy_density:
            total = total * (1.0 - r * rp * damp) / (dr * drp)
        r, rp = r / dr, rp / drp
    positions = [(1.0 - tt) * total if k is FieldKind.ENERGY_DENSITY else single_bracket(k, r, rp, t) for k in kinds]
    return constant, *positions
