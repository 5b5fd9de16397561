"""Exact and asymptotic reference results used to validate the numerics.

Perfect-conductor boundaries admit closed forms: a constant negative
energy density -pi^2/720 a^4 in a gap of width ``a``, squared-field
profiles expressible either through trigonometric functions or through
the order-3 polygamma function, and the single-interface limits
+-3/(16 pi^2 z^4). For the Drude model the leading near-wall behavior
of each expectation is known analytically. Everything here is cheap,
self-contained, and independent of the quadrature engine. Every argument
goes through `errors.checked_float`, so bools, non-numbers and values
outside its interval raise DomainError, and is taken as a float. Powers
are formed by products: a result below the float range rounds to 0.0, and
one above it raises DomainError naming the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dielectric import DielectricModel, Drude
from .errors import DivergesAtBoundary, DomainError, checked_float, is_finite_real

__all__ = [
    "AsymptoteReport",
    "NearWallAsymptotes",
    "pc_cavity_energy",
    "pc_cavity_e2",
    "pc_cavity_b2",
    "pc_cavity_e2_polygamma",
    "pc_cavity_b2_polygamma",
    "polygamma3",
    "pc_single_e2",
    "pc_single_b2",
    "casimir_polder",
    "near_wall_asymptotes",
]


@dataclass(frozen=True)
class AsymptoteReport:
    """Leading power-law behavior: value ~ leading_coefficient * z**power."""

    leading_coefficient: float
    power: int

    def __post_init__(self):
        if self.power not in (-2, -3, -4):
            raise DomainError(f"power must be one of -2, -3, -4, got {self.power!r}")
        object.__setattr__(self, "leading_coefficient", checked_float(self.leading_coefficient, "leading coefficient", low=-math.inf))
        object.__setattr__(self, "power", int(self.power))

    def evaluate(self, z: float) -> float:
        """The asymptote's value at distance z > 0."""
        z = checked_float(z, "z")
        return _over_power(self.leading_coefficient, z, -self.power, f"z = {z!r}")


@dataclass(frozen=True)
class NearWallAsymptotes:
    """Leading near-wall asymptotes of the three single-interface expectations."""

    e2: AsymptoteReport
    b2: AsymptoteReport
    u: AsymptoteReport


def _finite(value: float, what: str) -> float:
    """value, unless it is above the float range: DomainError naming ``what``."""
    if math.isinf(value):
        raise DomainError(f"{what} puts the result outside the float range")
    return value


def _over_power(c: float, x: float, n: int, what: str) -> float:
    """c / x^n by products, c first, so no step leaves the float range unless the result does; `_finite` names ``what``."""
    if c == 0.0:  # also where x^-n is above the float range
        return c
    inverse = 1.0 / x if x else math.inf
    for _ in range(n):
        c *= inverse
    return _finite(c, what)


def _interior(z, a) -> tuple[float, float]:
    """z and a as floats, after checking that a is a gap width and z lies strictly inside the gap."""
    a = checked_float(a, "gap width")
    if is_finite_real(z) and (z == 0 or z == a):
        raise DivergesAtBoundary(f"squared fields diverge at the walls, got z = {z!r}")
    return checked_float(z, "z", high=a), a


def pc_cavity_energy(a: float) -> float:
    """Energy density between perfect conductors: -pi^2 / (720 a^4), any z."""
    a = checked_float(a, "gap width")
    return _over_power(-(math.pi**2) / 720.0, a, 4, f"gap width {a!r}")


def _nearer_wall(z: float, a: float) -> float:
    """min(z, a - z) / a: the profiles are symmetric under z -> a - z, and a - z is exact for z >= a / 2, so no digits go as z nears a."""
    return min(z, a - z) / a


def _pc_cavity_profile_term(z: float, a: float) -> float:
    # (pi^2 / 16 a^4) (1 + 2 cos^2(pi z/a)) / sin^4(pi z/a)
    x = _nearer_wall(z, a)
    s = math.sin(math.pi * x)
    c = math.cos(math.pi * x)
    return _over_power((math.pi**2 / 16.0) * (1.0 + 2.0 * c * c), a * s, 4, f"z = {z!r} in a gap of width {a!r}")


def pc_cavity_e2(z: float, a: float) -> float:
    """Squared electric field between perfect conductors, trigonometric form."""
    z, a = _interior(z, a)
    return pc_cavity_energy(a) + _pc_cavity_profile_term(z, a)


def pc_cavity_b2(z: float, a: float) -> float:
    """Squared magnetic field between perfect conductors, trigonometric form."""
    z, a = _interior(z, a)
    return pc_cavity_energy(a) - _pc_cavity_profile_term(z, a)


def _pc_cavity_polygamma_term(z: float, a: float) -> float:
    x = _nearer_wall(z, a)
    try:
        terms = polygamma3(x) + polygamma3(1.0 - x)
    except DomainError:  # x = z / a so near 0 that polygamma3(x) is above the float range: name z, not x
        raise DomainError(f"z = {z!r} in a gap of width {a!r} puts the result outside the float range") from None
    return _over_power(terms / (32.0 * math.pi**2), a, 4, f"gap width {a!r}")


def pc_cavity_e2_polygamma(z: float, a: float) -> float:
    """Same profile as `pc_cavity_e2`, routed through the polygamma function."""
    z, a = _interior(z, a)
    return pc_cavity_energy(a) + _pc_cavity_polygamma_term(z, a)


def pc_cavity_b2_polygamma(z: float, a: float) -> float:
    """Same profile as `pc_cavity_b2`, routed through the polygamma function."""
    z, a = _interior(z, a)
    return pc_cavity_energy(a) - _pc_cavity_polygamma_term(z, a)


def polygamma3(x: float) -> float:
    """Order-3 polygamma function, psi'''(x) = 6 sum_{n>=0} (x + n)^-4, for x > 0.

    The first 32 terms are summed directly (smallest first) and the
    remainder is replaced by its Euler-Maclaurin expansion through the
    (x + 32)^-9 term, which keeps the truncation error below 1e-12
    relative for x in (0, 1]. The poles at 0, -1, -2, ... and every other
    x that is not a positive finite number raise DomainError.
    """
    x = checked_float(x, "x")
    # Each term is a correctly rounded power, which products are not: the direct
    # sum matches a brute-force series bit for bit. x + n > 0, so a term can
    # overflow, which only the first term near the pole does, but never divide by zero
    try:
        direct = math.fsum((x + n) ** -4 for n in reversed(range(32)))
    except OverflowError:
        direct = math.inf
    y = x + 32
    tail = y**-3 / 3.0 + y**-4 / 2.0 + y**-5 / 3.0 - y**-7 / 6.0 + 2.0 * y**-9 / 9.0
    return _finite(6.0 * (direct + tail), f"x = {x!r}")


def pc_single_e2(z: float) -> float:
    """Squared electric field outside a single perfect conductor: 3/(16 pi^2 z^4)."""
    z = checked_float(z, "z")
    return _over_power(3.0 / (16.0 * math.pi**2), z, 4, f"z = {z!r}")


def pc_single_b2(z: float) -> float:
    """Squared magnetic field outside a single perfect conductor: -3/(16 pi^2 z^4)."""
    return -pc_single_e2(z)


def casimir_polder(z: float, alpha0: float) -> float:
    """Asymptotic atom-wall potential -3 alpha0 / (32 pi^2 z^4).

    Equals -alpha0/2 times the squared electric field outside a perfect
    conductor, which is how it is cross-checked.
    """
    alpha0 = checked_float(alpha0, "polarizability", low=-math.inf)
    return _finite(-0.5 * alpha0 * pc_single_e2(z), f"polarizability {alpha0!r} at z = {z!r}")


def near_wall_asymptotes(model: DielectricModel) -> NearWallAsymptotes:
    """Leading small-z behavior of the single-interface expectations (Drude).

    The energy density and squared electric field both diverge as z^-3,
    with the electric coefficient exactly twice the energy one; the
    squared magnetic field diverges as z^-2 and stays negative.
    """
    if not isinstance(model, Drude):
        raise DomainError("near-wall asymptotes are available for the Drude model only")
    wp = model.plasma_frequency
    # The z^-2 coefficient is -5 wp^2 / (96 pi^2): direct evaluation of the
    # double integral confirms pi^2 here, not the sometimes-quoted 96 pi.
    return NearWallAsymptotes(
        e2=AsymptoteReport(math.sqrt(2.0) * wp / (32.0 * math.pi), -3),
        b2=AsymptoteReport(-5.0 * wp * wp / (96.0 * math.pi**2), -2),
        u=AsymptoteReport(math.sqrt(2.0) * wp / (64.0 * math.pi), -3),
    )
