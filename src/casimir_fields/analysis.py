"""High-level computations: spatial profiles, midgap scans, the critical separation.

The cavity energy density obeys the scaling U(z; a, wp) * a^4 = F(z/a, wp*a),
so midgap scans are computed at unit width with the dimensionless product
wp*a as the only knob. A profile is one batched engine call: the reflection
brackets are evaluated once per u node for every position and both squared
fields, and the energy density is their mean. Everything runs serially in
input order, so output is deterministic for a fixed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dielectric import DielectricModel, Drude, PerfectConductor, Vacuum
from .errors import DomainError, NoSignChange, NotApplicableError, is_finite_real
from .integrand import (
    Cavity,
    FieldKind,
    Geometry,
    SingleInterface,
    decay_scale_for,
    integrand_function,
    position_envelope,
)
from .quadrature import IntegralResult, QuadratureConfig, integrate_semi_infinite

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
    if n_points < 2:
        raise DomainError(f"a profile needs at least 2 points, got {n_points!r}")
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
    """
    if not (0 < lambda_min < lambda_max):
        raise DomainError(f"need 0 < lambda_min < lambda_max, got {lambda_min!r}, {lambda_max!r}")
    if n < 2:
        raise DomainError(f"a scan needs at least 2 points, got {n!r}")
    if spacing == "log":
        grid = np.geomspace(lambda_min, lambda_max, n)
    elif spacing == "linear":
        grid = np.linspace(lambda_min, lambda_max, n)
    else:
        raise DomainError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    cfg = cfg or QuadratureConfig()
    results = [_midgap_energy_scaled(float(lam), cfg) for lam in grid]
    return [
        ScanPoint(omega_p_a=float(lam), u_mid_scaled=res.value, err=res.error_estimate)
        for lam, res in zip(grid, results)
    ]


def critical_lambda(
    cfg: QuadratureConfig | None = None,
    bracket: tuple[float, float] = (50.0, 200.0),
    tol: float = 0.5,
) -> float:
    """The wp*a at which the midgap energy density changes sign, by bisection.

    Bisection is used deliberately: quadrature noise near the root favors
    a bracketing method over secant-type iterations.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 < lo < hi):
        raise DomainError(f"bracket must satisfy 0 < lo < hi, got {bracket!r}")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    cfg = cfg or QuadratureConfig()
    f_lo = _midgap_energy_scaled(lo, cfg).value
    f_hi = _midgap_energy_scaled(hi, cfg).value
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoSignChange(f"midgap energy density does not change sign on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = _midgap_energy_scaled(mid, cfg).value
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
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
