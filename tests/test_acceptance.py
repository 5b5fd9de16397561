"""Acceptance battery: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Criterion 4c encodes the quoted near-wall coefficient for the
squared magnetic field verbatim; direct evaluation of the double integral
converges to 1/pi of that form (the quoted denominator 96 pi should read
96 pi^2), so that single check fails and is kept failing on purpose as
documentation of the discrepancy. Criterion 4d asserts the corrected form.
"""

import math
import time

import numpy as np
import pytest

from casimir_fields import (
    Cavity,
    Drude,
    FieldKind,
    PerfectConductor,
    SingleInterface,
    compute_point,
    critical_lambda,
    critical_separation_physical,
    decay_scale_for,
    integrand_function,
    integrate_fixed_grid,
    integrate_semi_infinite,
    pc_cavity_b2,
    pc_cavity_b2_polygamma,
    pc_cavity_e2,
    pc_cavity_e2_polygamma,
    pc_single_b2,
    pc_single_e2,
    profile,
    wall_reduction_check,
)
from casimir_fields.dielectric import reflection_values
from casimir_fields.integrand import cavity_terms, position_envelope, single_bracket

PC_LIMIT = -(math.pi**2) / 720.0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_pc_cavity_energy():
    a = 1.0
    worst = 0.0
    for z in np.linspace(0.05, 0.95, 11):
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(a), PerfectConductor(), float(z))
        res = integrate_semi_infinite(f, decay_scale_for(Cavity(a), float(z)))
        worst = max(worst, abs(res.value / (PC_LIMIT / a**4) - 1.0))
    report("criterion 1 pc cavity energy", worst <= 1e-6, f"worst rel diff {worst:.2e} tol 1e-6")


def test_criterion_2_pc_cavity_profiles():
    a = 1.0
    pc = PerfectConductor()
    worst_quad = 0.0
    for z in np.linspace(0.05, 0.95, 25):
        z = float(z)
        point = compute_point(Cavity(a), pc, z)
        worst_quad = max(worst_quad, abs(point.e2 / pc_cavity_e2(z, a) - 1.0))
        worst_quad = max(worst_quad, abs(point.b2 / pc_cavity_b2(z, a) - 1.0))
    report(
        "criterion 2a pc profiles vs trig forms",
        worst_quad <= 1e-5,
        f"worst rel diff {worst_quad:.2e} tol 1e-5",
    )
    worst_routes = 0.0
    for z in np.linspace(0.05, 0.95, 25):
        z = float(z)
        worst_routes = max(worst_routes, abs(pc_cavity_e2_polygamma(z, a) / pc_cavity_e2(z, a) - 1.0))
        worst_routes = max(worst_routes, abs(pc_cavity_b2_polygamma(z, a) / pc_cavity_b2(z, a) - 1.0))
    report(
        "criterion 2b trig route vs polygamma route",
        worst_routes <= 1e-10,
        f"worst rel diff {worst_routes:.2e} tol 1e-10",
    )


def test_criterion_3_critical_separation():
    start = time.perf_counter()
    lam = critical_lambda()
    a_c = critical_separation_physical(14.8, lambda_c=lam)
    elapsed = time.perf_counter() - start
    report("criterion 3a critical lambda", 95.0 <= lam <= 103.0, f"lambda_c = {lam:.2f}, window [95, 103]")
    report(
        "criterion 3b physical separation",
        abs(a_c - 1.30) <= 0.05,
        f"a_c = {a_c:.4f} um for wp = 14.8 eV, window 1.30 +- 0.05",
    )
    report("criterion 3c runtime", elapsed < 60.0, f"{elapsed:.1f} s < 60 s")


def _near_wall_point():
    wp = 1.0
    z = 1e-3 / wp
    return wp, z, compute_point(SingleInterface(), Drude(wp), z)


def test_criterion_4a_near_wall_energy():
    wp, z, point = _near_wall_point()
    ratio = point.u * z**3 * 64.0 * math.pi / (math.sqrt(2.0) * wp)
    report("criterion 4a near-wall energy ratio", 0.99 <= ratio <= 1.01, f"ratio {ratio:.5f} in [0.99, 1.01]")


def test_criterion_4b_near_wall_e2():
    wp, z, point = _near_wall_point()
    ratio = point.e2 * z**3 * 32.0 * math.pi / (math.sqrt(2.0) * wp)
    report("criterion 4b near-wall e2 ratio", 0.99 <= ratio <= 1.01, f"ratio {ratio:.5f} in [0.99, 1.01]")


def test_criterion_4c_near_wall_b2_as_quoted():
    # Verbatim form of the quoted asymptote, -5 wp^2/(96 pi z^2). Direct
    # evaluation converges to 1/pi of it, so this check cannot pass; it is
    # kept as stated to document the missing factor of pi.
    wp, z, point = _near_wall_point()
    ratio = point.b2 * z**2 * 96.0 * math.pi / (-5.0 * wp**2)
    report(
        "criterion 4c near-wall b2 ratio, quoted 96*pi form",
        0.95 <= ratio <= 1.05,
        f"ratio {ratio:.5f} in [0.95, 1.05]; measured limit is 1/pi of the quoted form",
    )


def test_criterion_4d_near_wall_b2_corrected():
    wp, z, point = _near_wall_point()
    ratio = point.b2 * z**2 * 96.0 * math.pi**2 / (-5.0 * wp**2)
    report(
        "criterion 4d near-wall b2 ratio, corrected 96*pi^2 form",
        0.95 <= ratio <= 1.05,
        f"ratio {ratio:.5f} in [0.95, 1.05]",
    )


def test_criterion_5_single_interface_pc():
    pc = PerfectConductor()
    worst = 0.0
    worst_u = 0.0
    for z in (0.5, 1.0, 2.0):
        point = compute_point(SingleInterface(), pc, z)
        worst = max(worst, abs(point.e2 / pc_single_e2(z) - 1.0))
        worst = max(worst, abs(point.b2 / pc_single_b2(z) - 1.0))
        worst_u = max(worst_u, abs(point.u))
    report("criterion 5a pc single-interface fields", worst <= 1e-5, f"worst rel diff {worst:.2e} tol 1e-5")
    report("criterion 5b pc single-interface energy", worst_u <= 1e-14, f"max |u| {worst_u:.2e} <= abs_tol 1e-14")


def test_criterion_6_sign_structure_at_lambda_200():
    drude = Drude(200.0)
    single = profile(SingleInterface(), drude, 8, margin=0.02, window=0.5)
    all_positive = all(p.u > 0.0 for p in single.points)
    report(
        "criterion 6a single-interface energy positive",
        all_positive,
        f"min u = {min(p.u for p in single.points):.3e} over {len(single.points)} points",
    )
    midgap = compute_point(Cavity(1.0), drude, 0.5)
    report("criterion 6b cavity midgap energy negative", midgap.u < 0.0, f"u(a/2) = {midgap.u:.3e}")

    rng = np.random.default_rng(1234)
    u = 10.0 ** rng.uniform(-3.0, 3.0, size=(100, 1))
    t = rng.uniform(0.0, 1.0, size=(1, 100))
    z = float(rng.uniform(0.05, 0.95))
    ok = True
    for model in (drude, PerfectConductor()):
        r, rp = reflection_values(model, u, t)
        const, pos = cavity_terms(FieldKind.ENERGY_DENSITY, r, rp, u, t, 1.0, z)
        ok = ok and bool(np.all(const <= 0.0)) and bool(np.all(pos >= 0.0))
    report("criterion 6c term decomposition signs", ok, "term_constant <= 0 <= term_position on 10^4-node battery x2 models")


def test_criterion_7_reduction_and_symmetry():
    drude = Drude(200.0)
    ratio_far = wall_reduction_check(1.0, drude, 0.01)
    ratio_near = wall_reduction_check(1.0, drude, 0.001)
    report(
        "criterion 7a cavity reduces to single interface",
        0.9 <= ratio_far <= 1.1,
        f"ratio at z = 0.01 a: {ratio_far:.6f} in [0.9, 1.1]",
    )
    report(
        "criterion 7b reduction improves nearer the wall",
        abs(ratio_near - 1.0) <= abs(ratio_far - 1.0),
        f"|ratio-1|: {abs(ratio_near - 1.0):.2e} at 0.001a vs {abs(ratio_far - 1.0):.2e} at 0.01a",
    )

    prof = profile(Cavity(1.0), drude, 9, margin=0.05)
    symmetric = all(
        abs(left.u - right.u) <= 2.0 * (left.err + right.err) + 1e-14
        for left, right in zip(prof.points, reversed(prof.points))
    )
    report("criterion 7c cavity profile symmetric", symmetric, "u(z) = u(a-z) within 2x error estimates")

    rng = np.random.default_rng(99)
    u = 10.0 ** rng.uniform(-2.0, 2.0, size=(30, 1))
    t = rng.uniform(0.0, 1.0, size=(1, 30))
    r, rp = reflection_values(drude, u, t)
    swap_exact = np.array_equal(
        single_bracket(FieldKind.E_SQUARED, rp, r, t), single_bracket(FieldKind.B_SQUARED, r, rp, t)
    )
    const_e, pos_e = cavity_terms(FieldKind.E_SQUARED, rp, r, u, t, 1.0, 0.3)
    const_b, pos_b = cavity_terms(FieldKind.B_SQUARED, r, rp, u, t, 1.0, 0.3)
    swap_exact = swap_exact and np.array_equal(const_e, const_b) and np.array_equal(pos_e, pos_b)
    report("criterion 7d e2/b2 interchange exact at node level", bool(swap_exact), "swapped brackets identical bitwise")


def test_criterion_8_oracle_equivalence_and_scaling():
    points = []
    for lam in (1.0, 10.0, 200.0, 1e4):
        points += [(Cavity(1.0), Drude(lam), z) for z in (0.25, 0.5)]
        points.append((SingleInterface(), Drude(lam), 0.5))
    worst, cases = 0.0, 0
    for geometry, model, z in points:
        ds = decay_scale_for(geometry, z)
        # one bracket-form oracle call gives <E^2> and <B^2>; U is their mean
        oracle = integrate_fixed_grid(integrand_function(None, geometry, model), ds, envelope=position_envelope(geometry, [z]))
        (e2,), (b2,) = oracle.value.tolist()
        reference = {FieldKind.E_SQUARED: e2, FieldKind.B_SQUARED: b2, FieldKind.ENERGY_DENSITY: 0.5 * (e2 + b2)}
        for kind in FieldKind:
            adaptive = integrate_semi_infinite(integrand_function(kind, geometry, model, z), ds)
            worst = max(worst, abs(adaptive.value - reference[kind]) / abs(reference[kind]))
            cases += 1
    assert cases >= 30
    report(
        "criterion 8a adaptive engine vs fixed-grid oracle",
        worst <= 1e-6,
        f"worst rel diff {worst:.2e} over {cases} cases, tol 1e-6",
    )

    def single_energy(z, wp):
        f = integrand_function(FieldKind.ENERGY_DENSITY, SingleInterface(), Drude(wp), z)
        return integrate_semi_infinite(f, 2.0 * z).value

    base = single_energy(0.5, 1.0)
    worst_scale = 0.0
    for s in (2.0, 10.0):
        worst_scale = max(worst_scale, abs(s**4 * single_energy(s * 0.5, 1.0 / s) / base - 1.0))
    report(
        "criterion 8b scaling identity",
        worst_scale <= 1e-6,
        f"worst rel diff {worst_scale:.2e} for s in {{2, 10}}, tol 1e-6",
    )
