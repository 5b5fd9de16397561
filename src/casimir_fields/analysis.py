"""High-level computations: spatial profiles, midgap scans, the critical separation.

The cavity energy density obeys the scaling U(z; a, wp) * a^4 = F(z/a, wp*a),
so midgap scans are computed at unit width with the dimensionless product
wp*a as the only knob. A profile is one batched engine call: the reflection
brackets are evaluated once per u node for every position and both squared
fields, and the energy density is their mean. Everything runs serially in
input order, so output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dielectric import DielectricModel, Drude, PerfectConductor, Vacuum
from .errors import DomainError, NoSignChange, NotApplicableError, is_finite_real, is_integer
from .integrand import (
    Cavity,
    FieldKind,
    Geometry,
    SingleInterface,
    decay_scale_for,
    integrand_function,
    position_envelope,
)
from .quadrature import IntegralResult, QuadratureConfig, family_size, integrate_semi_infinite, unit_envelope

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

# ITP parameters of `critical_lambda`: kappa_1 times the initial bracket
# width, kappa_2, and the slack n_0 over bisection's step count. With n_0 = 0
# the default bracket took 11 integrals, as bisection does; with 1 it takes 7.
_ITP_KAPPA_1 = 0.2
_ITP_KAPPA_2 = 2.0
_ITP_N0 = 1


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
    """Ordered field points for one geometry and material."""

    geometry: Geometry
    model: DielectricModel
    points: tuple[FieldPoint, ...]

    def __post_init__(self):
        zs = [p.z for p in self.points]
        if not all(is_finite_real(z) for z in zs):
            raise DomainError("profile positions must be finite real numbers")
        if isinstance(self.geometry, SingleInterface) and any(z <= 0 for z in zs):
            raise DomainError("single-interface profile positions must lie in the vacuum region z > 0")
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise DomainError("profile positions must be strictly increasing")
        if isinstance(self.geometry, Cavity):
            a = self.geometry.width
            if any(not 0 < p.z < a for p in self.points):
                raise DomainError("cavity profile positions must lie strictly inside the gap")


@dataclass(frozen=True)
class ScanPoint:
    """Midgap energy density, scaled by a^4, at one value of wp*a."""

    omega_p_a: float
    u_mid_scaled: float
    err: float


def _field_points(
    geometry: Geometry, model: DielectricModel, z_values: Sequence[float], cfg: QuadratureConfig | None
) -> list[FieldPoint]:
    """<E^2>, <B^2> and U at every position, from one batched engine call."""
    scales = [decay_scale_for(geometry, z) for z in z_values]  # validates every z first
    zs = [float(z) for z in z_values]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise DomainError("profile positions must be strictly increasing")
    f = integrand_function(None, geometry, model)
    res = integrate_semi_infinite(f, scales, cfg, envelope=position_envelope(geometry, zs))
    (e2, b2), (err_e2, err_b2) = res.value.tolist(), res.error_estimate.tolist()
    return [
        FieldPoint(z=z, e2=e, b2=b, u=0.5 * (e + b), err=max(ee, eb))
        for z, e, b, ee, eb in zip(zs, e2, b2, err_e2, err_b2)
    ]


def compute_point(
    geometry: Geometry, model: DielectricModel, z: float, cfg: QuadratureConfig | None = None
) -> FieldPoint:
    """All three expectations at one field point, by quadrature.

    <E^2> and <B^2> come from one engine call on the shared brackets; the
    energy density is their mean, which holds exactly in the bracket
    algebra (the U bracket is the mean of the E^2 and B^2 brackets).
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

    All positions share one engine call and one u mesh, each with its own
    error control, so a row can differ from `compute_point` at the same z
    by about 1e-13 relative, always within ``err``.
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
    if not 0 < margin < 0.5:
        raise DomainError(f"margin must lie in (0, 0.5), got {margin!r}")
    if not (is_integer(n_points) and n_points >= 2):
        raise DomainError(f"n_points must be an integer of at least 2 points, got {n_points!r}")
    if isinstance(geometry, Cavity):
        length = geometry.width
    elif isinstance(geometry, SingleInterface):
        if not (is_finite_real(window) and window > 0):
            raise DomainError("single-interface profiles need a positive window length")
        length = float(window)
    else:
        raise TypeError(f"unknown geometry {geometry!r}")
    zs = np.linspace(margin * length, (1.0 - margin) * length, n_points)
    return profile_at(geometry, model, zs, cfg)


def _midgap_energy_scaled(omega_p_a: float, cfg: QuadratureConfig) -> IntegralResult:
    # unit-width cavity at z = 1/2; by scaling this is U(a/2) * a^4 for any a
    f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(omega_p_a), 0.5)
    return integrate_semi_infinite(f, 1.0, cfg)


def _midgap_energy_family(omega_p_as: Sequence[float], cfg: QuadratureConfig) -> IntegralResult:
    """`_midgap_energy_scaled` at every wp*a of a group from one engine call; value and err are (K, 1) arrays.

    The group shares one probe, one t rule and one u mesh, refined until
    every member meets its own tolerance, and each member's t-rule term
    uses its own measured rho.
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

    Consecutive grid values are integrated in groups of
    `quadrature.family_size` (5 at the default order), one engine call per
    group. A row can differ from the same wp*a integrated alone at the
    last digits, always within the sum of both ``err``.
    """
    for name, value in (("lambda_min", lambda_min), ("lambda_max", lambda_max)):
        if not is_finite_real(value):
            raise DomainError(f"{name} must be a finite real number, got {value!r}")
    if not (0 < lambda_min < lambda_max):
        raise DomainError(f"need 0 < lambda_min < lambda_max, got {lambda_min!r}, {lambda_max!r}")
    if not (is_integer(n) and n >= 2):
        raise DomainError(f"n must be an integer of at least 2 scan points, got {n!r}")
    if spacing == "log":
        grid = np.geomspace(lambda_min, lambda_max, n)
    elif spacing == "linear":
        grid = np.linspace(lambda_min, lambda_max, n)
    else:
        raise DomainError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    cfg = cfg or QuadratureConfig()
    size, points = family_size(cfg), []
    for start in range(0, n, size):
        group = grid[start : start + size].tolist()
        res = _midgap_energy_family(group, cfg)
        points += map(ScanPoint, group, res.value[:, 0].tolist(), res.error_estimate[:, 0].tolist())
    return points


def critical_lambda(
    cfg: QuadratureConfig | None = None,
    bracket: tuple[float, float] = (50.0, 200.0),
    tol: float = 0.5,
) -> float:
    """The wp*a at which the midgap energy density changes sign, by the ITP method.

    ITP (interpolate, truncate, project; Oliveira and Takahashi, ACM TOMS
    47, 2020) keeps a bracket [a, b] with a sign change, as bisection does.
    Each step starts from the regula falsi point, moves it towards the
    midpoint by delta = kappa_1 (b - a)^kappa_2, and projects it into a
    ball about the midpoint of radius eps 2^(n_max - j) - (b - a) / 2,
    where eps = tol / 2, n_max = ceil(log2((b0 - a0) / tol)) + n_0 and j
    counts the steps taken. Here kappa_1 = 0.2 / (b0 - a0), kappa_2 = 2
    and n_0 = 1, with [a0, b0] the given bracket. The projection caps the
    steps at n_max, one more than bisection takes to reach the same width,
    while on a smooth function the bracket shrinks superlinearly: the
    default bracket needs 5 steps instead of bisection's 9. A bracketing
    method is used deliberately, since quadrature noise near the root
    would mislead secant-type iterations.

    The search stops once the bracket is at most ``tol`` wide, or after
    n_max steps, which in exact arithmetic leave it at most that wide, and
    returns its midpoint: the root lies within tol / 2 of the value, up to
    rounding of the bracket ends. A bracket end or a step where the energy
    density is exactly zero is returned at once.

    Raises
    ------
    DomainError
        If the bracket ends are not finite with 0 < lo < hi, or ``tol`` is
        not a positive finite number.
    NoSignChange
        If the energy density has the same sign at both bracket ends.
    """
    if not (len(bracket) == 2 and all(is_finite_real(end) for end in bracket) and 0 < bracket[0] < bracket[1]):
        raise DomainError(f"bracket must be two finite numbers with 0 < lo < hi, got {bracket!r}")
    if not (is_finite_real(tol) and tol > 0):
        raise DomainError(f"tol must be a positive finite number, got {tol!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    cfg = cfg or QuadratureConfig()
    f_lo = _midgap_energy_scaled(lo, cfg).value
    f_hi = _midgap_energy_scaled(hi, cfg).value
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoSignChange(f"midgap energy density does not change sign on [{lo}, {hi}]")
    eps, kappa_1 = 0.5 * tol, _ITP_KAPPA_1 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / tol)) + _ITP_N0
    step = 0
    # n_max steps bring the bracket to tol in exact arithmetic; the cap also
    # ends the search where rounding leaves it a few ulps wider, or where tol
    # is below the float spacing at the root
    while hi - lo > tol and step < n_max:
        mid = 0.5 * (lo + hi)
        radius = eps * 2.0 ** (n_max - step) - 0.5 * (hi - lo)
        delta = kappa_1 * (hi - lo) ** _ITP_KAPPA_2
        falsi = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        sigma = math.copysign(1.0, mid - falsi)
        # truncate the regula falsi point towards the midpoint, then project it into the ball
        target = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        x = target if abs(target - mid) <= radius else mid - sigma * radius
        f_x = _midgap_energy_scaled(x, cfg).value
        if f_x == 0.0:
            return x
        if (f_x > 0) == (f_lo > 0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        step += 1
    return 0.5 * (lo + hi)


def critical_separation_physical(
    omega_p_ev: float,
    lambda_c: float | None = None,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Critical gap width in micrometers for a plasma frequency given in eV.

    Converts the dimensionless critical product wp*a to a physical length
    via hbar*c = 197.3269804 eV nm; if ``lambda_c`` is not supplied it is
    computed with `critical_lambda` at default settings.
    """
    if not (is_finite_real(omega_p_ev) and omega_p_ev > 0):
        raise DomainError(f"plasma frequency must be positive, got {omega_p_ev!r}")
    if lambda_c is None:
        lambda_c = critical_lambda(cfg)
    elif not (is_finite_real(lambda_c) and lambda_c > 0):
        raise DomainError(f"lambda_c must be a positive finite number, got {lambda_c!r}")
    return lambda_c * HBAR_C_EV_NM / omega_p_ev / 1000.0


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
    if not (0 < z_small < a):
        raise DomainError(f"z_small must lie inside the gap (0, {a!r}), got {z_small!r}")
    u_cavity = compute_point(Cavity(a), model, z_small, cfg).u
    u_single = compute_point(SingleInterface(), model, z_small, cfg).u
    if u_single == 0.0:
        raise NotApplicableError("single-interface energy density is zero at this point")
    return u_cavity / u_single
