"""Every public scalar input goes through `errors.checked_float`: one rule, one message."""

import math

import numpy as np
import pytest

from casimir_fields import (
    AsymptoteReport,
    Cavity,
    ConstantEpsilon,
    DomainError,
    Drude,
    InvalidDecayScale,
    PerfectConductor,
    QuadratureConfig,
    SingleInterface,
    casimir_polder,
    critical_lambda,
    critical_separation_physical,
    midpoint_scan,
    near_wall_asymptotes,
    pc_cavity_e2,
    pc_cavity_energy,
    pc_single_e2,
    polygamma3,
    profile,
    profile_at,
    wall_reduction_check,
)
from casimir_fields.quadrature import integrate_semi_infinite
from casimir_fields.errors import checked_float

# Each site: a call of one value, the name its DomainError gives, the bounds of
# its open interval that are finite (each must be refused) and a value inside.
SITES = {
    "drude": (lambda v: Drude(v).plasma_frequency, "plasma_frequency", (0.0,), 2.0),
    "epsilon": (lambda v: ConstantEpsilon(v).epsilon, "epsilon", (1.0,), 4.0),
    "cavity": (lambda v: Cavity(v).width, "cavity width", (0.0,), 2.0),
    "rel_tol": (lambda v: QuadratureConfig(rel_tol=v).rel_tol, "rel_tol", (0.0,), 1.0),
    "margin": (lambda v: profile(Cavity(1.0), PerfectConductor(), 3, margin=v), "margin", (0.0, 0.5), 0.25),
    "window": (lambda v: profile(SingleInterface(), PerfectConductor(), 3, window=v), "window", (0.0,), 2.0),
    "lambda_min": (lambda v: midpoint_scan(v, 20.0, 2), "lambda_min", (0.0,), 16.0),
    "lambda_max": (lambda v: midpoint_scan(10.0, v, 2), "lambda_max", (10.0,), 16.0),
    "tol": (lambda v: critical_lambda(tol=v), "tol", (0.0,), 2.0),
    "omega_p_ev": (lambda v: critical_separation_physical(v, lambda_c=96.5), "omega_p_ev", (0.0,), 16.0),
    "lambda_c": (lambda v: critical_separation_physical(14.8, lambda_c=v), "lambda_c", (0.0,), 96.0),
    "z_small": (lambda v: wall_reduction_check(1.0, Drude(200.0), v), "z_small", (0.0, 1.0), 0.25),
    # z = 0 and z = a raise DivergesAtBoundary (TestPcCavityProfiles), not DomainError
    "gap-z": (lambda v: pc_cavity_e2(v, 1.0), "z", (), 0.25),
    "gap-width": (pc_cavity_energy, "gap width", (0.0,), 2.0),
    "polygamma3": (polygamma3, "x", (0.0,), 2.0),
    "single-z": (pc_single_e2, "z", (0.0,), 2.0),
    "asymptote-z": (near_wall_asymptotes(Drude(1.0)).u.evaluate, "z", (0.0,), 2.0),
    "coefficient": (lambda v: AsymptoteReport(v, -3).leading_coefficient, "leading coefficient", (), 2.0),
    "polarizability": (lambda v: casimir_polder(1.0, v), "polarizability", (), 2.0),
}

# a Python int beyond the float range fails math.isfinite with OverflowError
HUGE = 10**400
REFUSED = [
    (site, value)
    for site, (_, _, bounds, _) in SITES.items()
    for value in (True, math.nan, math.inf, -math.inf, "x", HUGE, -HUGE, *bounds)
]
NUMPY = [
    (site, kind)
    for site, (_, _, _, inside) in SITES.items()
    for kind in (np.float32, np.float16, np.int64)
    if kind is not np.int64 or inside == int(inside)
]


@pytest.mark.parametrize("site, value", REFUSED, ids=[f"{site}-{'huge' if value in (HUGE, -HUGE) else repr(value)}" for site, value in REFUSED])
def test_refused_values_raise_one_message_naming_the_parameter(site, value):
    call, name, _, _ = SITES[site]
    with pytest.raises(DomainError) as excinfo:
        call(value)
    assert str(excinfo.value).startswith(f"{name} must be a finite number in (")
    assert str(excinfo.value).endswith(f"got {value!r}")


@pytest.mark.parametrize("site, kind", NUMPY, ids=[f"{site}-{kind.__name__}" for site, kind in NUMPY])
def test_numpy_values_are_kept_as_the_float_they_equal(site, kind):
    # repr tells a numpy scalar from the float it equals, in a result and in every dataclass field
    call, _, _, inside = SITES[site]
    value = kind(inside)
    assert repr(call(value)) == repr(call(float(value)))


def test_bounds_are_compared_with_the_float():
    # float32(0.1) lies above the float 0.1, though the two are equal in float32
    assert checked_float(np.float32(0.1), "x", low=0.1) == float(np.float32(0.1))
    with pytest.raises(DomainError):
        checked_float(np.float32(0.1), "x", high=0.1)


# The array inputs: positions and decay scales, each one huge int among floats.
ARRAY_SITES = {
    "single-z": (lambda v: profile_at(SingleInterface(), Drude(1.0), [v]), DomainError, "must lie in the vacuum region"),
    "cavity-z": (lambda v: profile_at(Cavity(1.0), Drude(1.0), [0.5, v]), DomainError, "must lie strictly inside the gap"),
    "decay-scale": (lambda v: integrate_semi_infinite(lambda u, t: u * t, v), InvalidDecayScale, "decay scale must be"),
    "decay-scales": (
        lambda v: integrate_semi_infinite(lambda u, t: u * t, [1.0, v], envelope=lambda u: np.ones((2, u.size))),
        InvalidDecayScale,
        "decay scale must be",
    ),
}


@pytest.mark.parametrize("site", ARRAY_SITES)
@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=("huge", "minus-huge"))
def test_huge_ints_in_arrays_raise_the_domain_error(site, value):
    call, error, message = ARRAY_SITES[site]
    with pytest.raises(error, match=message):
        call(value)
