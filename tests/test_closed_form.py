import math

import mpmath
import numpy as np
import pytest
import scipy.special

from casimir_fields import (
    AsymptoteReport,
    ConstantEpsilon,
    DivergesAtBoundary,
    DomainError,
    Drude,
    casimir_polder,
    near_wall_asymptotes,
    pc_cavity_b2,
    pc_cavity_b2_polygamma,
    pc_cavity_e2,
    pc_cavity_e2_polygamma,
    pc_cavity_energy,
    pc_single_b2,
    pc_single_e2,
    polygamma3,
)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: pc_cavity_energy(True), DomainError, id="energy-bool"),
        pytest.param(lambda: pc_single_e2(True), DomainError, id="single-bool"),
        pytest.param(lambda: pc_cavity_e2(True, 2.0), DomainError, id="cavity-z-bool"),
        pytest.param(lambda: casimir_polder(1.0, True), DomainError, id="polarizability-bool"),
        pytest.param(lambda: near_wall_asymptotes(Drude(1.0)).u.evaluate(True), DomainError, id="asymptote-bool"),
        pytest.param(lambda: pc_cavity_e2("a", 1.0), DomainError, id="cavity-z-str"),
        pytest.param(lambda: pc_cavity_energy(np.float32(1.0)), lambda: pc_cavity_energy(1.0), id="energy-float32"),
        pytest.param(lambda: pc_cavity_energy(np.int64(2)), lambda: pc_cavity_energy(2.0), id="energy-int64"),
        pytest.param(lambda: pc_single_e2(np.float32(0.5)), lambda: pc_single_e2(0.5), id="single-float32"),
        pytest.param(lambda: polygamma3(np.float32(0.5)), lambda: polygamma3(0.5), id="polygamma-float32"),
    ],
)
def test_arguments_are_real_numbers(call, expected):
    """Bools and non-numbers raise DomainError; a numpy real is taken as the float it equals."""
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        value = call()
        assert type(value) is float and value == expected()


class TestPcCavityEnergy:
    def test_reference_value(self):
        assert pc_cavity_energy(1.0) == pytest.approx(-(math.pi**2) / 720.0, rel=1e-15)
        assert pc_cavity_energy(1.0) == pytest.approx(-0.01370778, abs=1e-8)

    def test_quartic_scaling(self):
        assert pc_cavity_energy(2.0) == pytest.approx(pc_cavity_energy(1.0) / 16.0, rel=1e-15)

    def test_invalid_width(self):
        with pytest.raises(DomainError):
            pc_cavity_energy(0.0)
        with pytest.raises(DomainError):
            pc_cavity_energy(-2.0)


class TestPcCavityProfiles:
    def test_midgap_values(self):
        # sin(pi/2) = 1, cos(pi/2) = 0: E^2 = pi^2 (1/16 - 1/720), B^2 = -pi^2 (1/16 + 1/720)
        assert pc_cavity_e2(0.5, 1.0) == pytest.approx(math.pi**2 * 11.0 / 180.0, rel=1e-14)
        assert pc_cavity_b2(0.5, 1.0) == pytest.approx(-(math.pi**2) * 23.0 / 360.0, rel=1e-14)
        assert pc_cavity_e2(0.5, 1.0) == pytest.approx(0.6031424911776830, rel=1e-13)
        assert pc_cavity_b2(0.5, 1.0) == pytest.approx(-0.6305580589584867, rel=1e-13)

    def test_mean_is_constant_energy(self):
        for z in np.linspace(0.05, 0.95, 19):
            mean = 0.5 * (pc_cavity_e2(z, 1.0) + pc_cavity_b2(z, 1.0))
            assert mean == pytest.approx(pc_cavity_energy(1.0), rel=1e-10)

    def test_symmetry(self):
        for z in (0.1, 0.23, 0.4):
            assert pc_cavity_e2(z, 1.0) == pytest.approx(pc_cavity_e2(1.0 - z, 1.0), rel=1e-12)
            assert pc_cavity_b2(z, 1.0) == pytest.approx(pc_cavity_b2(1.0 - z, 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "z, a",
        [(1e-3, 1.0), (0.02, 1.0), (0.98, 1.0), (0.999, 1.0), (1.0 - 1e-6, 1.0), (0.941976, 0.9612), (2.999, 3.0)],
    )
    def test_both_walls_against_mpmath(self, z, a):
        # the forms take min(z, a - z) / a, so sin(pi z / a) loses no digits as z nears
        # the far wall: at z = 0.999 it once lost 9.7e-14 relative, at 1 - 1e-6 2.5e-11
        with mpmath.workdps(40):
            x = mpmath.mpf(z) / a
            energy = -mpmath.pi**2 / (720 * mpmath.mpf(a) ** 4)
            term = mpmath.pi**2 / (16 * mpmath.mpf(a) ** 4) * (1 + 2 * mpmath.cos(mpmath.pi * x) ** 2) / mpmath.sin(mpmath.pi * x) ** 4
            exact = {1: energy + term, -1: energy - term}
        for form, sign in ((pc_cavity_e2, 1), (pc_cavity_b2, -1), (pc_cavity_e2_polygamma, 1), (pc_cavity_b2_polygamma, -1)):
            assert abs(form(z, a) - float(exact[sign])) <= 2e-15 * abs(float(exact[sign]))

    def test_polygamma_route_agrees_with_trig(self):
        for z in np.linspace(0.02, 0.98, 50):
            assert pc_cavity_e2_polygamma(z, 1.0) == pytest.approx(pc_cavity_e2(z, 1.0), rel=1e-10)
            assert pc_cavity_b2_polygamma(z, 1.0) == pytest.approx(pc_cavity_b2(z, 1.0), rel=1e-10)

    def test_walls_diverge(self):
        for bad in (0.0, 1.0):
            with pytest.raises(DivergesAtBoundary):
                pc_cavity_e2(bad, 1.0)
            with pytest.raises(DivergesAtBoundary):
                pc_cavity_b2_polygamma(bad, 1.0)
        with pytest.raises(DomainError):
            pc_cavity_e2(1.5, 1.0)
        with pytest.raises(DomainError):
            pc_cavity_b2(-0.5, 1.0)

    def test_width_scaling(self):
        assert pc_cavity_e2(1.0, 2.0) == pytest.approx(pc_cavity_e2(0.5, 1.0) / 16.0, rel=1e-13)


class TestPolygamma3:
    def test_value_at_one(self):
        # 6 zeta(4) = pi^4 / 15
        assert polygamma3(1.0) == pytest.approx(math.pi**4 / 15.0, rel=1e-13)
        assert polygamma3(1.0) == pytest.approx(6.493939, abs=1e-6)

    def test_value_at_half(self):
        assert polygamma3(0.5) == pytest.approx(math.pi**4, rel=1e-13)
        assert polygamma3(0.5) == pytest.approx(97.40909, abs=1e-5)

    def test_reflection_formula(self):
        # psi3(x) + psi3(1-x) = 2 pi^4 (1 + 2 cos^2(pi x)) / sin^4(pi x)
        for x in (0.25, 1.0 / 3.0, 0.5):
            s, c = math.sin(math.pi * x), math.cos(math.pi * x)
            reference = 2.0 * math.pi**4 * (1.0 + 2.0 * c * c) / s**4
            assert polygamma3(x) + polygamma3(1.0 - x) == pytest.approx(reference, rel=1e-12)

    def test_brute_force_series_oracle(self):
        # pure partial sum plus an integral tail bound brackets the value
        for x in (0.1, 0.5, 0.9):
            n = 2000
            partial = 6.0 * math.fsum((x + k) ** -4 for k in reversed(range(n)))
            tail_hi = 6.0 * (x + n - 1) ** -3 / 3.0
            assert partial < polygamma3(x) < partial + tail_hi

    def test_matches_scipy(self):
        for x in [*np.linspace(0.05, 0.95, 10).tolist(), 0.4, 0.97]:
            assert polygamma3(x) == pytest.approx(float(scipy.special.polygamma(3, x)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            polygamma3(0.0)
        with pytest.raises(DomainError):
            polygamma3(-1.0)

    def test_recurrence_region(self):
        # series form remains valid for x > 1
        assert polygamma3(2.0) == pytest.approx(math.pi**4 / 15.0 - 6.0, rel=1e-12)


class TestPcSingleInterface:
    def test_values_at_unit_distance(self):
        assert pc_single_e2(1.0) == pytest.approx(3.0 / (16.0 * math.pi**2), rel=1e-15)
        assert pc_single_e2(1.0) == pytest.approx(0.0190, abs=1e-4)
        assert pc_single_b2(1.0) == pytest.approx(-0.0190, abs=1e-4)

    def test_sum_vanishes(self):
        for z in (0.5, 1.0, 2.0):
            assert pc_single_e2(z) + pc_single_b2(z) == 0.0

    def test_quartic_divergence(self):
        assert pc_single_e2(0.5) == pytest.approx(16.0 * pc_single_e2(1.0), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            pc_single_e2(0.0)
        with pytest.raises(DomainError):
            pc_single_b2(-1.0)


class TestCasimirPolder:
    def test_reference_value(self):
        assert casimir_polder(1.0, 1.0) == pytest.approx(-3.0 / (32.0 * math.pi**2), rel=1e-15)
        assert casimir_polder(1.0, 1.0) == pytest.approx(-0.0094989, abs=1e-7)

    def test_identity_with_pc_field(self):
        for z, alpha0 in ((0.5, 1.0), (2.0, 0.3)):
            assert casimir_polder(z, alpha0) == -0.5 * alpha0 * pc_single_e2(z)

    def test_zero_polarizability(self):
        assert casimir_polder(1.0, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            casimir_polder(0.0, 1.0)
        with pytest.raises(DomainError):
            casimir_polder(1.0, math.nan)


class TestNearWallAsymptotes:
    def test_coefficients(self):
        wp = 1.0
        asym = near_wall_asymptotes(Drude(wp))
        assert asym.u.leading_coefficient == pytest.approx(math.sqrt(2.0) / (64.0 * math.pi), rel=1e-15)
        assert asym.e2.leading_coefficient == pytest.approx(math.sqrt(2.0) / (32.0 * math.pi), rel=1e-15)
        # direct evaluation of the double integral fixes 96 pi^2 here
        assert asym.b2.leading_coefficient == pytest.approx(-5.0 / (96.0 * math.pi**2), rel=1e-15)
        assert asym.u.power == -3 and asym.e2.power == -3 and asym.b2.power == -2

    def test_e2_coefficient_twice_energy(self):
        asym = near_wall_asymptotes(Drude(3.3))
        assert asym.e2.leading_coefficient == pytest.approx(2.0 * asym.u.leading_coefficient, rel=1e-15)

    def test_b2_negative(self):
        asym = near_wall_asymptotes(Drude(2.0))
        assert asym.b2.leading_coefficient < 0.0
        assert asym.b2.evaluate(0.1) < 0.0

    def test_linear_in_wp_for_divergent_terms(self):
        one = near_wall_asymptotes(Drude(1.0))
        five = near_wall_asymptotes(Drude(5.0))
        assert five.u.leading_coefficient == pytest.approx(5.0 * one.u.leading_coefficient, rel=1e-14)
        assert five.b2.leading_coefficient == pytest.approx(25.0 * one.b2.leading_coefficient, rel=1e-14)

    def test_requires_drude(self):
        with pytest.raises(DomainError):
            near_wall_asymptotes(ConstantEpsilon(2.0))

    def test_report_validation(self):
        with pytest.raises(DomainError):
            AsymptoteReport(1.0, -5)
        with pytest.raises(DomainError):
            AsymptoteReport(math.inf, -3)
        report = AsymptoteReport(2.0, -2)
        assert report.evaluate(0.5) == pytest.approx(8.0)
        with pytest.raises(DomainError):
            report.evaluate(0.0)

    @pytest.mark.parametrize(
        "coefficient, power",
        [(np.float32(0.1), -3), (np.float64(-2.5), np.int64(-4)), (np.int64(3), np.float32(-2.0))],
        ids=("coefficient-float32", "power-int64", "coefficient-int64-power-float32"),
    )
    def test_report_stores_a_float_and_an_int(self, coefficient, power):
        # numpy scalars are taken as the float and int they equal, so evaluate returns a float
        report = AsymptoteReport(coefficient, power)
        assert type(report.leading_coefficient) is float and type(report.power) is int
        assert report == AsymptoteReport(float(coefficient), int(power))
        assert type(report.evaluate(2.0)) is float
        assert report.evaluate(2.0) == float(coefficient) * 2.0 ** int(power)
