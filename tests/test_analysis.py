import math
from types import SimpleNamespace

import numpy as np
import pytest

from casimir_fields import (
    Cavity,
    DivergesAtBoundary,
    DomainError,
    Drude,
    FieldKind,
    NoSignChange,
    NotApplicableError,
    PerfectConductor,
    Profile,
    QuadratureConfig,
    SingleInterface,
    Vacuum,
    compute_point,
    critical_lambda,
    critical_separation_physical,
    decay_scale_for,
    integrand_function,
    integrate_semi_infinite,
    midpoint_scan,
    pc_cavity_b2,
    pc_cavity_e2,
    profile,
    profile_at,
    wall_reduction_check,
)
from casimir_fields import analysis
from casimir_fields.analysis import FieldPoint


class TestComputePoint:
    def test_pc_cavity_midgap(self):
        point = compute_point(Cavity(1.0), PerfectConductor(), 0.5)
        assert point.u == pytest.approx(-(math.pi**2) / 720.0, rel=1e-8)
        assert point.e2 == pytest.approx(pc_cavity_e2(0.5, 1.0), rel=1e-7)
        assert point.b2 == pytest.approx(pc_cavity_b2(0.5, 1.0), rel=1e-7)

    def test_vacuum_is_zero(self):
        point = compute_point(SingleInterface(), Vacuum(), 1.0)
        assert point.e2 == 0.0 and point.b2 == 0.0 and point.u == 0.0

    def test_energy_identity_within_errors(self):
        point = compute_point(SingleInterface(), Drude(3.0), 0.7)
        assert abs(point.u - 0.5 * (point.e2 + point.b2)) <= 2.0 * point.err + 1e-15

    def test_propagates_domain_errors(self):
        with pytest.raises(DomainError):
            compute_point(Cavity(1.0), Drude(1.0), 1.5)

    def test_cavity_midgap_drude200_matches_frozen_oracle(self):
        # frozen from the fixed-grid evaluator at its default resolution
        point = compute_point(Cavity(1.0), Drude(200.0), 0.5)
        assert point.u == pytest.approx(-0.0068842900257083455, rel=1e-6)
        assert point.u < 0.0

    def test_nondispersive_fields_scale_as_inverse_quartic(self):
        # constant permittivity has t-only reflection, so every expectation
        # is exactly proportional to z^-4; no coefficient is pinned
        from casimir_fields import ConstantEpsilon

        model = ConstantEpsilon(4.0)
        near = compute_point(SingleInterface(), model, 0.5)
        far = compute_point(SingleInterface(), model, 1.0)
        assert near.e2 / far.e2 == pytest.approx(16.0, rel=1e-8)
        assert near.b2 / far.b2 == pytest.approx(16.0, rel=1e-8)
        assert near.u / far.u == pytest.approx(16.0, rel=1e-8)
        assert near.u > 0.0 and near.e2 > 0.0 and near.b2 < 0.0

    def test_near_wall_divergence_propagates(self):
        from casimir_fields import DivergesAtBoundary

        with pytest.raises(DivergesAtBoundary):
            compute_point(SingleInterface(), Drude(1.0), 1e-8)

    def test_near_wall_ratio_battery(self):
        from casimir_fields import near_wall_asymptotes

        wp = 1.0
        asym = near_wall_asymptotes(Drude(wp))
        for z in (1e-3, 1e-4):
            point = compute_point(SingleInterface(), Drude(wp), z)
            assert 0.99 <= point.u / asym.u.evaluate(z) <= 1.01
            assert 0.99 <= point.e2 / asym.e2.evaluate(z) <= 1.01
            assert 0.95 <= point.b2 / asym.b2.evaluate(z) <= 1.05


class TestProfile:
    def test_cavity_profile_symmetric(self):
        result = profile(Cavity(1.0), Drude(200.0), 9, margin=0.1)
        zs = [p.z for p in result.points]
        assert zs[0] == pytest.approx(0.1) and zs[-1] == pytest.approx(0.9)
        for left, right in zip(result.points, reversed(result.points)):
            assert left.u == pytest.approx(right.u, abs=2.0 * (left.err + right.err) + 1e-14)

    def test_cavity_energy_minimal_at_center(self):
        result = profile(Cavity(1.0), Drude(200.0), 9, margin=0.05)
        us = [p.u for p in result.points]
        center = us[len(us) // 2]
        assert center == min(us)
        assert us[0] > center and us[-1] > center

    def test_single_interface_drude_signs(self):
        result = profile(SingleInterface(), Drude(1.0), 6, margin=0.1, window=5.0)
        for point in result.points:
            assert point.e2 > 0.0
            assert point.b2 < 0.0
            assert point.u > 0.0

    def test_single_interface_requires_window(self):
        with pytest.raises(DomainError):
            profile(SingleInterface(), Drude(1.0), 5)

    def test_margin_validation(self):
        with pytest.raises(DomainError):
            profile(Cavity(1.0), Drude(1.0), 5, margin=0.0)
        with pytest.raises(DomainError):
            profile(Cavity(1.0), Drude(1.0), 5, margin=0.5)
        with pytest.raises(DomainError):
            profile(Cavity(1.0), Drude(1.0), 1)

    def test_profile_at_requires_increasing_grid(self):
        with pytest.raises(DomainError):
            profile_at(SingleInterface(), Vacuum(), [0.5, 0.5])
        with pytest.raises(DomainError):
            profile_at(SingleInterface(), Vacuum(), [])

    def test_profile_invariant_for_cavity_positions(self):
        good = compute_point(SingleInterface(), Vacuum(), 0.5)
        with pytest.raises(DomainError):
            Profile(Cavity(1.0), Vacuum(), (FieldPoint(1.5, 0, 0, 0, 0),))
        Profile(SingleInterface(), Vacuum(), (good,))

    @pytest.mark.parametrize("geometry", [SingleInterface(), Cavity(1.0)], ids=("single", "cavity"))
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_profile_rejects_positions_outside_the_vacuum(self, geometry, z):
        with pytest.raises(DomainError):
            Profile(geometry, Vacuum(), (FieldPoint(z, 0, 0, 0, 0),))

    @pytest.mark.parametrize(
        "geometry, zs, model",
        [
            (Cavity(1.0), np.linspace(0.05, 0.95, 7), Drude(200.0)),
            (SingleInterface(), np.geomspace(1e-3, 5.0, 7), Drude(1.0)),
        ],
        ids=("cavity", "single"),
    )
    def test_profile_row_matches_compute_point(self, geometry, zs, model):
        rows = profile_at(geometry, model, zs).points
        for j in (0, 3, 6):
            point = compute_point(geometry, model, zs[j])
            bound = rows[j].err + point.err
            for field in ("e2", "b2", "u"):
                assert abs(getattr(rows[j], field) - getattr(point, field)) <= bound

    @pytest.mark.parametrize(
        "geometry, z, error",
        [
            (SingleInterface(), np.float32(0.5), None),
            (SingleInterface(), np.int64(1), None),
            (Cavity(1.0), np.float64(0.25), None),
            (SingleInterface(), True, DomainError),
            (SingleInterface(), np.bool_(True), DomainError),
            (SingleInterface(), math.nan, DomainError),
            (SingleInterface(), math.inf, DomainError),
            (Cavity(1.0), -math.inf, DomainError),
            (Cavity(1.0), math.nan, DomainError),
            (Cavity(1.0), 0.0, DomainError),
            (Cavity(1.0), 1.0, DomainError),
            (Cavity(1.0), 1.5, DomainError),
            (SingleInterface(), 1e-9, DivergesAtBoundary),
            (Cavity(1.0), 1.0 - 1e-9, DivergesAtBoundary),
        ],
    )
    def test_profile_position_checks(self, geometry, z, error, monkeypatch):
        zs = sorted([0.2, z])  # increasing, so the ordering check cannot pre-empt the check under test
        if error is None:
            result = profile_at(geometry, Drude(1.0), zs)
            assert result.points[1].z == float(z) and isinstance(result.points[1].z, float)
            return

        def no_evaluation(*args):
            raise AssertionError("integrand evaluated before the positions were checked")

        monkeypatch.setattr("casimir_fields.integrand.reflection_values", no_evaluation)
        monkeypatch.setattr("casimir_fields.integrand._reflection_factors", no_evaluation)
        with pytest.raises(error):
            profile_at(geometry, Drude(1.0), zs)

    @pytest.mark.parametrize(
        "geometry, model, zs, message",
        [
            (Cavity(1.0), Drude(10.0), [0.9, 0.1], "strictly increasing"),
            (Cavity(1.0), Drude(10.0), [0.5, 0.5], "strictly increasing"),
            (SingleInterface(), Drude(1.0), [0.5, 0.2], "strictly increasing"),
            (SingleInterface(), Drude(1.0), [0.5, math.nan, 0.2], "vacuum region"),
            (SingleInterface(), Drude(1.0), [0.5, True, 0.2], "vacuum region"),
            (Cavity(1.0), Drude(10.0), [0.9, "0.1"], "inside the gap"),
        ],
    )
    def test_profile_order_checked_before_any_integral(self, geometry, model, zs, message, monkeypatch):
        integrals, integrate = [], analysis.integrate_semi_infinite

        def recording(*args, **kwargs):
            integrals.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(analysis, "integrate_semi_infinite", recording)
        with pytest.raises(DomainError, match=message):
            profile_at(geometry, model, zs)
        assert integrals == []

    @pytest.mark.parametrize(
        "call, args, name",
        [
            (profile, (Cavity(1.0), Drude(1.0), 2.5), "n_points"),
            (profile, (Cavity(1.0), Drude(1.0), True), "n_points"),
            (profile, (Cavity(1.0), Drude(1.0), 1), "n_points"),
            (profile_at, (Cavity(1.0), Drude(1.0), 0.5), "z_values"),
            (profile_at, (Cavity(1.0), Drude(1.0), [[0.25, 0.5]]), "z_values"),
        ],
        ids=("n-float", "n-bool", "n-one", "z-scalar", "z-nested"),
    )
    def test_argument_validation(self, call, args, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            call(*args)

    def test_repeated_profile_is_bit_identical(self):
        first = profile(Cavity(1.0), Drude(50.0), 5, margin=0.2)
        second = profile(Cavity(1.0), Drude(50.0), 5, margin=0.2)
        assert first.points == second.points


class TestMidpointScan:
    def test_signs_bracket_the_root(self):
        points = midpoint_scan(50.0, 200.0, 2)
        assert points[0].u_mid_scaled > 0.0
        assert points[-1].u_mid_scaled < 0.0

    def test_monotone_decreasing(self):
        points = midpoint_scan(10.0, 1000.0, 10)
        values = [p.u_mid_scaled for p in points]
        errs = [p.err for p in points]
        for (v1, e1), (v2, e2) in zip(zip(values, errs), zip(values[1:], errs[1:])):
            assert v2 < v1 + e1 + e2

    def test_approaches_pc_limit_from_above(self):
        points = midpoint_scan(9000.0, 10000.0, 2)
        limit = -(math.pi**2) / 720.0
        for p in points:
            assert limit < p.u_mid_scaled < 0.0
            assert abs(p.u_mid_scaled - limit) < 0.1 * abs(limit)

    def test_grid_options_and_validation(self):
        log_points = midpoint_scan(10.0, 1000.0, 3)
        assert log_points[1].omega_p_a == pytest.approx(100.0)
        lin_points = midpoint_scan(10.0, 1000.0, 3, spacing="linear")
        assert lin_points[1].omega_p_a == pytest.approx(505.0)
        with pytest.raises(DomainError):
            midpoint_scan(100.0, 10.0, 5)
        with pytest.raises(DomainError):
            midpoint_scan(10.0, 100.0, 1)
        with pytest.raises(DomainError):
            midpoint_scan(10.0, 100.0, 5, spacing="cubic")

    @pytest.mark.parametrize(
        "args, name",
        [
            ((10.0, 20.0, 2.5), "n"),
            ((10.0, 20.0, True), "n"),
            ((10.0, math.inf, 5), "lambda_max"),
            ((math.nan, 20.0, 5), "lambda_min"),
            ((True, 20.0, 5), "lambda_min"),
        ],
    )
    def test_argument_validation(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            midpoint_scan(*args)

    def test_rows_match_single_integrals(self, monkeypatch):
        # 12 values in groups of 5, 5 and 2, one engine call per group
        calls = [0]
        integrate = analysis.integrate_semi_infinite

        def counted(*args, **kwargs):
            calls[0] += 1
            return integrate(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(analysis, "integrate_semi_infinite", counted)
            points = midpoint_scan(10.0, 1000.0, 12)
        assert calls[0] == 3
        cfg = QuadratureConfig()
        for point in points:
            single = analysis._midgap_energy_scaled(point.omega_p_a, cfg)
            assert abs(point.u_mid_scaled - single.value) <= point.err + single.error_estimate
            assert isinstance(point.u_mid_scaled, float) and isinstance(point.err, float)

    def test_reproducible(self):
        first = midpoint_scan(50.0, 150.0, 3)
        second = midpoint_scan(50.0, 150.0, 3)
        assert first == second


class TestCriticalLambda:
    def test_default_bracket_root(self):
        lam = critical_lambda()
        assert 95.0 <= lam <= 103.0

    def test_widened_bracket_same_root(self):
        lam = critical_lambda(bracket=(10.0, 10000.0), tol=0.5)
        assert abs(lam - critical_lambda()) <= 1.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            critical_lambda(bracket=(200.0, 300.0))

    def test_bracket_validation(self):
        with pytest.raises(DomainError):
            critical_lambda(bracket=(200.0, 100.0))
        with pytest.raises(DomainError):
            critical_lambda(bracket=(50.0, 200.0), tol=0.0)

    @pytest.mark.parametrize("tol", [True, math.inf, math.nan, -0.5, "0.5"])
    def test_tol_validation(self, tol):
        with pytest.raises(DomainError, match="tol"):
            critical_lambda(tol=tol)

    @pytest.mark.parametrize("bracket", [(50.0, math.inf), (math.nan, 200.0), (True, 200.0), (0.0, 200.0)])
    def test_bracket_ends_validation(self, bracket):
        with pytest.raises(DomainError, match="bracket"):
            critical_lambda(bracket=bracket)

    def test_default_bracket_takes_seven_integrals(self, monkeypatch):
        integrals = _count_integrals(monkeypatch)
        lam = critical_lambda()
        # Brent's method to 1e-10 puts the root at 96.60661; bisection took 11 integrals
        assert abs(lam - 96.60661) <= 0.25
        assert integrals[0] <= 7


def _count_integrals(monkeypatch, energy=None):
    """Count the midgap integrals critical_lambda evaluates; ``energy``, if given, replaces them with U(wp*a)."""
    integral, integrals = analysis._midgap_energy_scaled, [0]

    def counted(omega_p_a, cfg):
        integrals[0] += 1
        return SimpleNamespace(value=energy(omega_p_a)) if energy else integral(omega_p_a, cfg)

    monkeypatch.setattr(analysis, "_midgap_energy_scaled", counted)
    return integrals


_ROOTS = (50.3, 96.60661, 123.4, 199.9)


class TestITPContract:
    """critical_lambda on cheap monotone stand-ins for the midgap energy density."""

    SHAPES = {
        "linear": lambda root: (lambda x: root - x),
        "strongly-curved": lambda root: (lambda x: (root / x) ** 8 - 1.0),
        "flat-then-steep": lambda root: (lambda x: 1.0 - math.exp(min(x - root, 600.0) / 2.0)),
        "increasing": lambda root: (lambda x: math.expm1(min(x - root, 600.0))),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("root", _ROOTS)
    @pytest.mark.parametrize("bracket, tol", [((50.0, 200.0), 0.5), ((10.0, 1e4), 0.5), ((50.0, 200.0), 1e-6)])
    def test_root_within_half_tol_in_bisection_steps_plus_one(self, monkeypatch, shape, root, bracket, tol):
        integrals = _count_integrals(monkeypatch, self.SHAPES[shape](root))
        lam = critical_lambda(bracket=bracket, tol=tol)
        assert abs(lam - root) <= 0.5 * tol
        # bisection evaluates both ends, then halves the bracket until it is at most tol wide
        bisection = 2 + math.ceil(math.log2((bracket[1] - bracket[0]) / tol))
        assert integrals[0] <= bisection + 1

    def test_exact_zero_is_returned(self, monkeypatch):
        # zero on all of [90, 110], so a step lands on an exact zero
        integrals = _count_integrals(monkeypatch, lambda x: min(0.0, 110.0 - x) + max(0.0, 90.0 - x))
        lam = critical_lambda()
        assert 90.0 <= lam <= 110.0 and integrals[0] < 11
        _count_integrals(monkeypatch, lambda x: 100.0 - x)
        assert critical_lambda(bracket=(50.0, 100.0)) == 100.0

    def test_tol_below_the_float_spacing_ends(self, monkeypatch):
        # near 96.6 floats are 1.4e-14 apart, so a bracket 1e-15 wide never
        # forms; the sign alone never reads exactly zero
        integrals = _count_integrals(monkeypatch, lambda x: math.copysign(1.0, 96.60661 - x))
        assert abs(critical_lambda(tol=1e-15) - 96.60661) <= 1e-13
        assert integrals[0] <= 2 + math.ceil(math.log2(150.0 / 1e-15)) + 1

    def test_no_sign_change(self, monkeypatch):
        integrals = _count_integrals(monkeypatch, lambda x: 1.0 + x)
        with pytest.raises(NoSignChange):
            critical_lambda()
        assert integrals[0] == 2


class TestCriticalSeparationPhysical:
    def test_aluminum_reference(self):
        # conversion check at the quoted lambda_c = 99
        assert critical_separation_physical(14.8, lambda_c=99.0) == pytest.approx(1.3200, abs=5e-4)

    def test_inverse_proportionality(self):
        assert critical_separation_physical(29.6, lambda_c=99.0) == pytest.approx(0.66, abs=3e-3)

    def test_invalid_plasma_frequency(self):
        with pytest.raises(DomainError):
            critical_separation_physical(0.0)
        with pytest.raises(DomainError):
            critical_separation_physical(-14.8)

    @pytest.mark.parametrize("lambda_c", [math.nan, math.inf, -5.0, 0.0, True])
    def test_invalid_lambda_c(self, lambda_c):
        with pytest.raises(DomainError, match="lambda_c"):
            critical_separation_physical(14.8, lambda_c=lambda_c)

    def test_computed_value_in_window(self):
        a_c = critical_separation_physical(14.8)
        assert 1.25 <= a_c <= 1.35


class TestWallReduction:
    def test_ratio_near_one(self):
        ratio = wall_reduction_check(1.0, Drude(200.0), 0.01)
        assert 0.9 <= ratio <= 1.1

    def test_ratio_improves_closer_to_wall(self):
        coarse = wall_reduction_check(1.0, Drude(200.0), 0.01)
        fine = wall_reduction_check(1.0, Drude(200.0), 0.001)
        assert abs(fine - 1.0) <= abs(coarse - 1.0)

    def test_not_applicable_for_unit_reflectivity(self):
        with pytest.raises(NotApplicableError):
            wall_reduction_check(1.0, PerfectConductor(), 0.01)
        with pytest.raises(NotApplicableError):
            wall_reduction_check(1.0, Vacuum(), 0.01)

    def test_position_validation(self):
        with pytest.raises(DomainError):
            wall_reduction_check(1.0, Drude(200.0), 1.5)


class TestScalingIdentities:
    def _single_energy(self, z, wp, cfg=None):
        f = integrand_function(FieldKind.ENERGY_DENSITY, SingleInterface(), Drude(wp), z)
        return integrate_semi_infinite(f, 2.0 * z, cfg).value

    def test_single_interface_scaling(self):
        base = self._single_energy(0.5, 1.0)
        for s in (2.0, 10.0):
            scaled = s**4 * self._single_energy(s * 0.5, 1.0 / s)
            assert scaled == pytest.approx(base, rel=1e-6)

    def test_cavity_scaling(self):
        # U(z; a; wp) * a^4 depends only on (z/a, wp*a)
        def cavity_energy(z, a, wp):
            f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(a), Drude(wp), z)
            return integrate_semi_infinite(f, decay_scale_for(Cavity(a), z)).value

        for z_frac, lam in ((0.25, 200.0), (0.5, 40.0)):
            one = cavity_energy(z_frac, 1.0, lam)
            two = cavity_energy(2.0 * z_frac, 2.0, lam / 2.0) * 16.0
            assert two == pytest.approx(one, rel=1e-6)

    def test_swapped_reflection_maps_e2_profile_onto_b2(self):
        # integrating the swapped-bracket integrand reproduces b2 exactly
        from casimir_fields import CAVITY_PREFACTOR, SINGLE_PREFACTOR, cavity_terms, reflection_values, single_bracket

        model, z = Drude(5.0), 0.4

        def swapped_single(u, t):
            r, rp = reflection_values(model, u, t)
            return SINGLE_PREFACTOR * u**3 * single_bracket(FieldKind.E_SQUARED, rp, r, t) * np.exp(-2.0 * u * z)

        direct = integrate_semi_infinite(integrand_function(FieldKind.B_SQUARED, SingleInterface(), model, z), 2 * z)
        via_swap = integrate_semi_infinite(swapped_single, 2 * z)
        assert via_swap.value == direct.value

        def swapped_cavity(u, t):
            r, rp = reflection_values(model, u, t)
            const, pos = cavity_terms(FieldKind.E_SQUARED, rp, r, u, t, 1.0, z)
            return CAVITY_PREFACTOR * u**3 * (const + pos)

        direct = integrate_semi_infinite(integrand_function(FieldKind.B_SQUARED, Cavity(1.0), model, z), 2 * z)
        via_swap = integrate_semi_infinite(swapped_cavity, 2 * z)
        assert via_swap.value == direct.value
