"""High-level computations: spatial profiles, midgap scans, the critical separation.

The cavity energy density obeys the scaling U(z; a, wp) * a^4 = F(z/a, wp*a),
so midgap scans are computed at unit width with the dimensionless product
wp*a as the only knob; the critical wp*a is a Chebyshev root search whose
checks are sign tests, integrated at rel_tol 1/2. A profile is one batched
engine call: the reflection brackets are evaluated once per u node for every
position and both squared fields, and the energy density is their mean.
Outside one mirror that does not disperse, the u integral is 3 / (8 z^4) and
no engine call runs. Everything runs serially in input order, so output is
deterministic for a fixed configuration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

from .dielectric import ConstantEpsilon, DielectricModel, Drude, PerfectConductor, Vacuum
from .errors import DomainError, NoSignChange, NonConvergence, NotApplicableError, checked_float, is_finite_real, is_integer
from .integrand import (
    SINGLE_PREFACTOR,
    Cavity,
    FieldKind,
    Geometry,
    SingleInterface,
    _checked_positions,
    _single_rows,
    integrand_function,
    position_envelope,
)
from .quadrature import (
    _DECAY_SCALE_FLOOR,
    _T_INTEGRAL_ROUNDOFF,
    _U_SUM_ROUNDOFF,
    IntegralResult,
    QuadratureConfig,
    _checked_scales,
    integrate_semi_infinite,
    unit_envelope,
)

__all__ = [
    "HBAR_C_EV_NM",
    "FieldPoint",
    "Profile",
    "ScanPoint",
    "compute_point",
    "profile",
    "profile_at",
    "midpoint_scan",
    "critical_lambda",
    "critical_separation_physical",
    "wall_reduction_check",
]

HBAR_C_EV_NM = 197.3269804  # CODATA hbar*c in eV nm

@dataclass(frozen=True)
class FieldPoint:
    """Field expectations at one position: z, <E^2>, <B^2>, U, error estimate."""

    z: float
    e2: float
    b2: float
    u: float
    err: float


@dataclass(frozen=True)
class Profile:
    """Ordered field points for one geometry and material, as `profile_at` builds them."""

    geometry: Geometry
    model: DielectricModel
    points: tuple[FieldPoint, ...]


@dataclass(frozen=True)
class ScanPoint:
    """Midgap energy density, scaled by a^4, at one value of wp*a."""

    omega_p_a: float
    u_mid_scaled: float
    err: float


def _field_points(
    geometry: Geometry, model: DielectricModel, z_values: Sequence[float], cfg: QuadratureConfig | None
) -> list[FieldPoint]:
    """<E^2>, <B^2> and U at every position, from one batched engine call, or in closed form outside one undispersed mirror.

    The positions are checked once, before any integral: real numbers in
    the vacuum region, strictly increasing.
    """
    zs, scales = _checked_positions(geometry, z_values)
    if not (zs[1:] > zs[:-1]).all():
        raise DomainError("profile positions must be strictly increasing")
    if isinstance(geometry, SingleInterface) and isinstance(model, (ConstantEpsilon, PerfectConductor, Vacuum)):
        value, err = _single_wall_fields(model, zs, scales, cfg or QuadratureConfig())
    else:
        f = integrand_function(None, geometry, model)
        res = integrate_semi_infinite(f, scales, cfg, envelope=position_envelope(geometry, zs))
        value, err = res.value, res.error_estimate
    (e2, b2), (err_e2, err_b2) = value.tolist(), err.tolist()
    return [
        FieldPoint(z, e, b, 0.5 * (e + b), max(ee, eb)) for z, e, b, ee, eb in zip(zs.tolist(), e2, b2, err_e2, err_b2)
    ]


def _single_wall_fields(model: DielectricModel, zs: np.ndarray, scales: np.ndarray, cfg: QuadratureConfig):
    """<E^2> and <B^2> outside one constant-eps, perfectly conducting or vacuum mirror: value and err, each (2, positions).

    There r and r' do not depend on u, so each field is SINGLE_PREFACTOR
    times the t integral of its bracket (`integrand._single_rows`) times
    the integral of u^3 e^{-2uz} over u > 0, 3 / (8 z^4). ``err`` is the
    engine's roundoff allowances, 16 ulps for the t integral and 4 for a
    u sum, of the magnitude. The engine's input checks hold: the
    decay-scale floor, and NonConvergence where ``err`` alone exceeds the
    tolerance.
    """
    _checked_scales(scales, _DECAY_SCALE_FLOOR)
    inverse = 1.0 / zs
    # z^-4 by products, the constant first, so no accepted z overflows; a result below the float range rounds to 0
    constant = (0.375 * SINGLE_PREFACTOR) * _single_rows(model, (FieldKind.E_SQUARED, FieldKind.B_SQUARED)).T[:, :, None]
    value, magnitude = constant * inverse * inverse * inverse * inverse
    err = (_T_INTEGRAL_ROUNDOFF + _U_SUM_ROUNDOFF) * magnitude
    tol = np.maximum(cfg.rel_tol * np.abs(value), cfg.abs_tol)
    if (err > tol).any():
        pair = np.unravel_index(np.argmax(err - tol), tol.shape)
        raise NonConvergence(
            f"roundoff allowance {float(err[pair]):.3e} exceeds the tolerance {float(tol[pair]):.3e}; loosen rel_tol or abs_tol",
            result=IntegralResult(value, err, 0, math.inf),
        )
    return value, err


def compute_point(
    geometry: Geometry, model: DielectricModel, z: float, cfg: QuadratureConfig | None = None
) -> FieldPoint:
    """All three expectations at one field point, by quadrature or, outside one undispersed mirror, in closed form.

    <E^2> and <B^2> come from one engine call on the shared brackets;
    outside one constant-eps, perfectly conducting or vacuum mirror they
    are the t integrals of the brackets times 3 / (8 z^4), with no engine
    call (`_single_wall_fields`). The energy density is their mean, which
    holds exactly in the bracket algebra (the U bracket is the mean of the
    E^2 and B^2 brackets).
    ``err`` is the larger of the two error estimates and also bounds the
    error of U.
    """
    return _field_points(geometry, model, [z], cfg)[0]


def profile_at(
    geometry: Geometry,
    model: DielectricModel,
    z_values: Sequence[float],
    cfg: QuadratureConfig | None = None,
) -> Profile:
    """Profile on an explicit, strictly increasing grid of positions.

    All positions share one engine call and its u rows, each with its own
    error control, so a row can differ from `compute_point` at the same z
    by about 2e-14 relative, always within ``err``. Outside one
    constant-eps, perfectly conducting or vacuum mirror no engine call
    runs: each row is in closed form, as `compute_point` takes it.
    """
    if np.ndim(z_values) != 1:
        raise DomainError(f"z_values must be a sequence of positions, got {z_values!r}")
    if len(z_values) == 0:
        raise DomainError("profile needs at least one position")
    return Profile(geometry, model, tuple(_field_points(geometry, model, z_values, cfg)))


def profile(
    geometry: Geometry,
    model: DielectricModel,
    n_points: int,
    margin: float = 0.02,
    cfg: QuadratureConfig | None = None,
    window: float | None = None,
) -> Profile:
    """Evenly spaced profile across the vacuum region, staying off the walls.

    Positions run over [margin * L, (1 - margin) * L] where L is the gap
    width for a cavity or the caller-given ``window`` length for a single
    interface. The walls themselves are excluded because the squared
    fields diverge there.
    """
    margin = checked_float(margin, "margin", high=0.5)
    if not (is_integer(n_points) and n_points >= 2):
        raise DomainError(f"n_points must be an integer of at least 2 points, got {n_points!r}")
    if isinstance(geometry, Cavity):
        length = geometry.width
    elif isinstance(geometry, SingleInterface):
        length = checked_float(window, "window")
    else:
        raise TypeError(f"unknown geometry {geometry!r}")
    zs = np.linspace(margin * length, (1.0 - margin) * length, n_points)
    return profile_at(geometry, model, zs, cfg)


# wp*a values per engine call of `midpoint_scan`. Every group of the default
# 10-1000 scan converges on the engine's first call, 81 u rows, so each
# group is one integrand call. A member costs about 21 kB of traced peak
# memory: a midgap pass (a 40-value scan and the critical root) peaked at
# 0.63 MB in groups of 15, 0.73 MB in groups of 20 and 1.16 MB in one group of
# 40. Against groups of 15 the scan took 0.8x the time in groups of 20 and
# 0.64x in one group of 40 (2-vCPU x86 host, numpy 2.4).
_SCAN_GROUP = 20
# Chebyshev-Lobatto points per round of `critical_lambda`, ends included.
_CRITICAL_POINTS = 15
# rel_tol floor of `critical_lambda`'s check integrals, which only read a sign:
# an error estimate at most |U| / 2 leaves the sign of U fixed.
_SIGN_REL_TOL = 0.5


def _midgap_energy_family(omega_p_as: Sequence[float], cfg: QuadratureConfig) -> IntegralResult:
    """U(1/2) of a unit-width Drude cavity, by scaling U(a/2) a^4, at each wp*a of a group; value, err are (K, 1).

    One engine call: the group shares its u rows, refined until every member
    meets its own tolerance, and each member keeps its own error estimate.
    """
    f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(lam) for lam in omega_p_as], 0.5)
    return integrate_semi_infinite(f, [1.0], cfg, envelope=unit_envelope)


def midpoint_scan(
    lambda_min: float,
    lambda_max: float,
    n: int,
    cfg: QuadratureConfig | None = None,
    spacing: str = "log",
) -> list[ScanPoint]:
    """Midgap energy density, scaled by a^4, over a grid of wp*a values.

    The scaled value decreases monotonically with wp*a and approaches the
    perfect-conductor constant -pi^2/720 from above for large arguments.

    Consecutive grid values are integrated in groups of _SCAN_GROUP (20),
    one engine call per group, whatever the settings of ``cfg``. A row has
    the bits of the same wp*a integrated alone when the group stops where
    it would alone, as every group of the default scan does.
    """
    lambda_min = checked_float(lambda_min, "lambda_min")
    lambda_max = checked_float(lambda_max, "lambda_max", low=lambda_min)
    if not (is_integer(n) and n >= 2):
        raise DomainError(f"n must be an integer of at least 2 scan points, got {n!r}")
    if spacing == "log":
        grid = np.geomspace(lambda_min, lambda_max, n)
    elif spacing == "linear":
        grid = np.linspace(lambda_min, lambda_max, n)
    else:
        raise DomainError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    cfg = cfg or QuadratureConfig()
    points = []
    for start in range(0, n, _SCAN_GROUP):
        group = grid[start : start + _SCAN_GROUP].tolist()
        res = _midgap_energy_family(group, cfg)
        points += map(ScanPoint, group, res.value[:, 0].tolist(), res.error_estimate[:, 0].tolist())
    return points


def critical_lambda(
    cfg: QuadratureConfig | None = None,
    bracket: tuple[float, float] = (50.0, 200.0),
    tol: float = 0.5,
) -> float:
    """The wp*a at which the midgap energy density changes sign, by Chebyshev interpolation and a sign check.

    Each round samples the bracket at its _CRITICAL_POINTS (15) Chebyshev-Lobatto
    points, ends included, integrating in one family (`_midgap_energy_family`)
    those that no earlier family integrated, and takes the first gap
    [a, b] between samples where the sign changes. There the root r of the
    interpolating polynomial (Boyd, SIAM J. Numer. Anal. 40, 2002) comes from
    a sign search on a grid of the gap, a linear step and a Newton step, and
    is kept tol / 2 inside [a, b]. A sign test at r - tol / 2 and r + tol / 2
    checks it: the points not yet integrated go into one family at rel_tol
    max(cfg.rel_tol, 1/2), whose error estimate fixes a sign and nothing
    more. If the sign changes there, r is returned; otherwise the next round
    searches the part of [a, b] that holds the change, at most 0.1113 of the
    bracket for 15 points, and integrates at full accuracy its 13 interior
    points and the failed check's point: sign-test values never become
    samples. A gap at most ``tol`` wide, or between adjacent floats, returns
    its midpoint. So the root lies within tol / 2 of the value, up to
    rounding. A sample or check of exactly zero is returned at once. The
    default bracket takes 2 engine passes and 2 integrand calls.

    Raises
    ------
    DomainError
        If the bracket ends are not finite with 0 < lo < hi, or ``tol`` is
        not a positive finite number.
    NoSignChange
        If the energy density has the same sign at both bracket ends.
    """
    pair = isinstance(bracket, (tuple, list, np.ndarray)) and len(bracket) == 2
    if not (pair and all(is_finite_real(end) for end in bracket) and 0 < bracket[0] < bracket[1]):
        raise DomainError(f"bracket must be two finite numbers with 0 < lo < hi, got {bracket!r}")
    lo, hi, tol = float(bracket[0]), float(bracket[1]), checked_float(tol, "tol")
    cfg = cfg or QuadratureConfig()
    half_tol, n = 0.5 * tol, _CRITICAL_POINTS
    # Lobatto points cos(theta) of [-1, 1] in ascending order, and the DCT-I
    # that takes values there to Chebyshev coefficients, its end terms halved
    theta = np.linspace(np.pi, 0.0, n)
    nodes, halves = np.cos(theta), np.ones(n)
    halves[[0, -1]] = 0.5
    dct = (2.0 / (n - 1)) * halves[:, None] * np.cos(np.outer(np.arange(n), theta)) * halves
    sign_cfg = dataclasses.replace(cfg, rel_tol=max(cfg.rel_tol, _SIGN_REL_TOL))
    # every wp*a integrated so far, at cfg (known) or, by checks only, at sign_cfg (signs)
    known, signs = {}, {}

    def energies(points: list, values: dict, accuracy: QuadratureConfig) -> list:
        """U at each wp*a of points, integrating at accuracy into values, in one family, those in neither map."""
        new = list(dict.fromkeys(v for v in points if v not in known and v not in values))
        if new:
            values.update(zip(new, _midgap_energy_family(new, accuracy).value[:, 0].tolist()))
        return [known[v] if v in known else values[v] for v in points]

    while True:
        x = lo + (hi - lo) * (0.5 + 0.5 * nodes)
        x[-1] = hi
        f = np.array(energies(x.tolist(), known, cfg))
        if (f == 0.0).any():
            return float(x[np.argmax(f == 0.0)])
        changes = np.flatnonzero((f[:-1] > 0) != (f[1:] > 0))
        if changes.size == 0:
            raise NoSignChange(f"midgap energy density does not change sign on [{lo}, {hi}]")
        i = changes[0]
        a, b = x[i].item(), x[i + 1].item()
        if b - a <= tol or math.nextafter(a, b) == b:
            return 0.5 * (a + b)
        # the interpolant's sign on a grid of the gap, whose ends keep the samples' signs, a linear
        # step within the cell of the first sign change, then a Newton step if it is shorter than the cell
        coefficients = dct @ f
        grid = np.linspace(nodes[i], nodes[i + 1], n)
        p = chebval(grid, coefficients)
        p[[0, -1]] = f[i : i + 2]
        j = np.flatnonzero((p[:-1] > 0) != (p[1:] > 0))[0]
        t = (grid[j] - p[j] * (grid[j + 1] - grid[j]) / (p[j + 1] - p[j])).item()
        value, slope = chebval(t, coefficients).item(), chebval(t, chebder(coefficients)).item()
        if abs(value) < abs(slope) * (grid[j + 1] - grid[j]):
            t -= value / slope
        r = min(max(lo + (hi - lo) * (0.5 + 0.5 * t), a + half_tol), b - half_tol)
        f_left, f_right = energies([r - half_tol, r + half_tol], signs, sign_cfg)
        if f_left == 0.0 or f_right == 0.0 or (f_left > 0) != (f_right > 0):
            return r
        lo, hi = (r + half_tol, b) if (f_left > 0) == (f[i] > 0) else (a, r - half_tol)


def critical_separation_physical(
    omega_p_ev: float,
    lambda_c: float | None = None,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Critical gap width in micrometers for a plasma frequency given in eV.

    Converts the dimensionless critical product wp*a to a physical length
    via hbar*c = 197.3269804 eV nm; if ``lambda_c`` is not supplied it is
    computed with `critical_lambda` at default settings. A width above the
    float range raises DomainError; one below it rounds to 0.0.
    """
    omega_p_ev = checked_float(omega_p_ev, "omega_p_ev")
    lambda_c = critical_lambda(cfg) if lambda_c is None else checked_float(lambda_c, "lambda_c")
    width = lambda_c * HBAR_C_EV_NM / omega_p_ev / 1000.0
    if math.isinf(width):
        raise DomainError(f"omega_p_ev = {omega_p_ev!r} with lambda_c = {lambda_c!r} puts the width outside the float range")
    return width


def wall_reduction_check(
    a: float,
    model: DielectricModel,
    z_small: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Ratio U_cavity(z) / U_single(z) near one wall of the gap.

    Tends to 1 as z/a tends to 0: close to a wall the second interface
    stops mattering. Undefined for models whose single-interface energy
    density vanishes identically (perfect conductor, vacuum).
    """
    if isinstance(model, (PerfectConductor, Vacuum)):
        raise NotApplicableError("the single-interface energy density vanishes identically for this model")
    cavity = Cavity(a)
    z_small = checked_float(z_small, "z_small", high=cavity.width)
    u_cavity = compute_point(cavity, model, z_small, cfg).u
    u_single = compute_point(SingleInterface(), model, z_small, cfg).u
    if u_single == 0.0:
        raise NotApplicableError("single-interface energy density is zero at this point")
    return u_cavity / u_single
