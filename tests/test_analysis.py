import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from casimir_fields import (
    CAVITY_PREFACTOR,
    Cavity,
    ConstantEpsilon,
    DivergesAtBoundary,
    DomainError,
    Drude,
    FieldKind,
    NonConvergence,
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
from casimir_fields import analysis, quadrature


def _midgap_closure(omega_p_a):
    """The plain closure of the scaled midgap energy density: a unit-width Drude cavity at z = 1/2."""
    return integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(omega_p_a), 0.5)


def _forbid_integrals(monkeypatch):
    """Make any engine call of the analysis layer fail the test."""

    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the positions were checked")

    monkeypatch.setattr(analysis, "integrate_semi_infinite", no_integral)


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

    def test_non_finite_integrand_raises(self):
        # wp a = 1e-100 overflows the Drude cavity arithmetic, which gave an all-NaN
        # point; the engine refuses it (numpy's overflow warnings are not under test)
        with np.errstate(all="ignore"), pytest.raises(NonConvergence, match="not finite"):
            compute_point(Cavity(1.0), Drude(1e-100), 0.5)

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
        for margin in ("a", None):
            with pytest.raises(DomainError, match="margin"):
                profile(Cavity(1.0), PerfectConductor(), 3, margin=margin)

    def test_numpy_margin_is_taken_as_its_float(self):
        # a float32 margin would run linspace in float32: the middle z read 0.49999997
        got = profile(Cavity(1.0), PerfectConductor(), 3, margin=np.float32(0.1))
        assert got == profile(Cavity(1.0), PerfectConductor(), 3, margin=float(np.float32(0.1)))
        assert [type(p.z) for p in got.points] == [float] * 3 and got.points[1].z == 0.5

    def test_profile_at_requires_increasing_grid(self):
        with pytest.raises(DomainError):
            profile_at(SingleInterface(), Vacuum(), [0.5, 0.5])
        with pytest.raises(DomainError):
            profile_at(SingleInterface(), Vacuum(), [])

    def test_profile_invariant_for_cavity_positions(self, monkeypatch):
        good = profile_at(SingleInterface(), Vacuum(), [0.5])
        assert isinstance(good, Profile) and good.points == (compute_point(SingleInterface(), Vacuum(), 0.5),)
        _forbid_integrals(monkeypatch)
        with pytest.raises(DomainError, match="inside the gap"):
            profile_at(Cavity(1.0), Vacuum(), [1.5])

    @pytest.mark.parametrize("geometry", [SingleInterface(), Cavity(1.0)], ids=("single", "cavity"))
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_profile_rejects_positions_outside_the_vacuum(self, geometry, z, monkeypatch):
        _forbid_integrals(monkeypatch)
        with pytest.raises(DomainError, match="vacuum region" if isinstance(geometry, SingleInterface) else "inside the gap"):
            profile_at(geometry, Vacuum(), [z])

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

        monkeypatch.setattr("casimir_fields.integrand._reflection_factors", no_evaluation)
        monkeypatch.setattr("casimir_fields.integrand._cavity_coefficients", no_evaluation)
        monkeypatch.setattr("casimir_fields.integrand._single_coefficients", no_evaluation)
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

    def test_rows_match_single_integrals(self, engine_calls):
        # 16 values fit in one group of _SCAN_GROUP (20): one engine call on 159 u rows
        points = midpoint_scan(10.0, 1000.0, 16)
        assert engine_calls.engine == engine_calls.integrand == 1
        assert engine_calls.rows == [159]
        cfg = QuadratureConfig()
        for point in points:
            single = integrate_semi_infinite(_midgap_closure(point.omega_p_a), 1.0, cfg)
            # a member's rows and sums round as they do alone
            assert (point.u_mid_scaled, point.err) == (single.value, single.error_estimate)
            assert isinstance(point.u_mid_scaled, float) and isinstance(point.err, float)

    @pytest.mark.parametrize("omega_p_a", [10.0, 50.0, 96.60661, 123.4, 200.0, 1000.0])
    def test_one_member_family_is_the_plain_integral(self, omega_p_a):
        # a family of one takes the same u rows as the plain closure: the same value, err and evaluations, bit for bit
        cfg = QuadratureConfig()
        single = integrate_semi_infinite(_midgap_closure(omega_p_a), 1.0, cfg)
        family = analysis._midgap_energy_family([omega_p_a], cfg)
        assert (family.value[0, 0], family.error_estimate[0, 0]) == (single.value, single.error_estimate)
        assert family.evaluations == single.evaluations

    def test_forty_values_take_one_engine_call_per_family(self, engine_calls):
        midpoint_scan(10.0, 1000.0, 40)
        assert engine_calls.engine == -(-40 // analysis._SCAN_GROUP) == 2
        # no group of the default scan refines the u rule
        assert engine_calls.integrand == 2
        assert engine_calls.rows == [159, 159]

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_numpy_float_ends_scan_as_their_floats(self, dtype, spacing):
        # a float32 linear grid once read 227.20001220703125 for 227.20000624656677
        lo, hi = dtype(10.3), dtype(877.9)
        assert midpoint_scan(lo, hi, 5, spacing=spacing) == midpoint_scan(float(lo), float(hi), 5, spacing=spacing)

    def test_reproducible(self):
        first = midpoint_scan(50.0, 150.0, 3)
        second = midpoint_scan(50.0, 150.0, 3)
        assert first == second


class TestWorkloadShapes:
    """Integrand calls and evaluations of the benchmark's three workload shapes, and the peak memory of a profile."""

    def test_cavity_profile(self, engine_calls):
        # a 101-point Drude cavity profile and a 25-point perfect-conductor one: 191 u rows each
        profile(Cavity(1.0), Drude(200.0), 101)
        profile(Cavity(1.0), PerfectConductor(), 25)
        assert (engine_calls.engine, engine_calls.integrand, engine_calls.evaluations) == (2, 2, 382)

    def test_single_decades(self, engine_calls):
        # single-interface profiles over 3.7 decades: 243 u rows each
        for model, n in ((Drude(1.0), 64), (ConstantEpsilon(4.0), 16), (PerfectConductor(), 16)):
            profile_at(SingleInterface(), model, np.geomspace(1e-3, 5.0, n))
        assert (engine_calls.engine, engine_calls.integrand, engine_calls.evaluations) == (3, 3, 729)

    def test_midgap_root(self, engine_calls):
        # a 40-value scan in 2 groups and the root from a 15-member family and a 2-member
        # check at the sign tolerance: every family converges on its first call, 159 rows
        midpoint_scan(10.0, 1000.0, 40)
        critical_lambda()
        assert (engine_calls.engine, engine_calls.integrand, engine_calls.evaluations) == (4, 4, 636)
        assert engine_calls.rows == [159] * 4

    def test_cavity_profile_peak_memory(self):
        # the trapezoid sums take the envelope in one matrix product, with no
        # (fields, positions, u nodes) grid: about 498 KB on the 191 rows of the
        # first call, against 576 KB for 151 Kronrod rows in panels and about
        # 700 KB with that grid on 136 (tracemalloc, numpy 2.4)
        profile(Cavity(1.0), Drude(200.0), 101)  # builds the cached rules
        tracemalloc.start()
        try:
            profile(Cavity(1.0), Drude(200.0), 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600_000


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

    @pytest.mark.parametrize("bracket", [(50.0, math.inf), (math.nan, 200.0), (True, 200.0), (0.0, 200.0), 50.0, (50.0, 100.0, 200.0)])
    def test_bracket_ends_validation(self, bracket):
        with pytest.raises(DomainError, match="bracket"):
            critical_lambda(bracket=bracket)

    def test_default_bracket_integrand_calls(self, engine_calls):
        # one 15-member family at the Lobatto points of the bracket and one 2-member
        # check about the interpolant's root, which only reads signs: both converge
        # on the first call
        critical_lambda()
        assert engine_calls.engine == 2
        assert engine_calls.integrand == 2

    def test_default_bracket_root_within_1e_4_of_the_reference(self):
        # Brent's method to 1e-10 puts the root at 96.6066069
        assert abs(critical_lambda() - 96.6066069) <= 1e-4

    def test_tol_1e_6_root_within_half_tol_of_the_reference(self):
        assert abs(critical_lambda(tol=1e-6) - 96.6066069) <= 5e-7

    @pytest.mark.parametrize("rel_tol, sign_rel_tol", [(1e-6, 0.5), (0.7, 0.7)])
    def test_checks_integrate_at_the_sign_tolerance(self, monkeypatch, rel_tol, sign_rel_tol):
        # the samples take the caller's cfg; the checks take its rel_tol raised
        # to at least 1/2 and every other field as given
        cfgs = []
        _count_family_calls(monkeypatch, lambda x: (96.60661 / x) ** 8 - 1.0, cfgs)
        critical_lambda(QuadratureConfig(rel_tol, abs_tol=1e-15), tol=1e-6)
        rounds = [QuadratureConfig(rel_tol, abs_tol=1e-15), QuadratureConfig(sign_rel_tol, abs_tol=1e-15)]
        assert len(cfgs) > 2 and cfgs == rounds * (len(cfgs) // 2)


def _count_family_calls(monkeypatch, energy=None, cfgs=None):
    """Record the wp*a of each of critical_lambda's family calls, and its cfg in ``cfgs`` if given.

    ``energy``, if given, replaces each member's integral with U(wp*a).
    """
    family, calls = analysis._midgap_energy_family, []

    def counted_family(omega_p_as, cfg):
        calls.append(omega_p_as)
        if cfgs is not None:
            cfgs.append(cfg)
        return SimpleNamespace(value=np.array([[energy(x)] for x in omega_p_as])) if energy else family(omega_p_as, cfg)

    monkeypatch.setattr(analysis, "_midgap_energy_family", counted_family)
    return calls


_ROOTS = (50.3, 96.60661, 123.4, 199.9)


def _call_bound(width, tol):
    """Two family calls a round, samples and check; a round leaves one Lobatto gap, 0.1113 of the bracket."""
    return 2 * math.ceil(math.log(width / tol, 9))


class TestRootSearchContract:
    """critical_lambda on cheap monotone stand-ins for the midgap energy density."""

    SHAPES = {
        "linear": lambda root: (lambda x: root - x),
        "strongly-curved": lambda root: (lambda x: (root / x) ** 8 - 1.0),
        "flat-then-steep": lambda root: (lambda x: 1.0 - math.exp(min(x - root, 600.0) / 2.0)),
        "increasing": lambda root: (lambda x: math.expm1(min(x - root, 600.0))),
        "step": lambda root: (lambda x: math.copysign(1.0, root - x)),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("root", _ROOTS)
    @pytest.mark.parametrize("bracket, tol", [((50.0, 200.0), 0.5), ((10.0, 1e4), 0.5), ((50.0, 200.0), 1e-6)])
    def test_root_within_half_tol_in_two_calls_per_ninefold_shrink(self, monkeypatch, shape, root, bracket, tol):
        calls = _count_family_calls(monkeypatch, self.SHAPES[shape](root))
        lam = critical_lambda(bracket=bracket, tol=tol)
        assert abs(lam - root) <= 0.5 * tol
        assert len(calls) <= _call_bound(bracket[1] - bracket[0], tol)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("root", _ROOTS)
    def test_later_rounds_integrate_the_interior_points_and_the_failed_check(self, monkeypatch, shape, root):
        # from the second round on, one bracket end is a sample of the round before,
        # whose value is reused, and the other the failed check's point, known only
        # at the sign tolerance: the round integrates it with the 13 interior points
        calls = _count_family_calls(monkeypatch, self.SHAPES[shape](root))
        assert abs(critical_lambda(tol=1e-6) - root) <= 0.5e-6
        samples = calls[0::2]
        assert [len(x) for x in samples] == [15] + [14] * (len(samples) - 1)
        for k, x in enumerate(samples[1:], 1):
            assert len(set(calls[2 * k - 1]) & set(x)) == 1
            assert {v for call in calls[: 2 * k - 1] for v in call}.isdisjoint(x)
        if shape != "linear":  # every other stand-in takes more than one round
            assert len(samples) > 1

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("root", _ROOTS)
    @pytest.mark.parametrize("bracket, tol", [((50.0, 200.0), 0.5), ((10.0, 1e4), 0.5), ((50.0, 200.0), 1e-6), ((50.0, 200.0), 1e-15)])
    def test_no_wp_a_is_integrated_twice_at_one_tolerance(self, monkeypatch, shape, root, bracket, tol):
        cfgs = []
        calls = _count_family_calls(monkeypatch, self.SHAPES[shape](root), cfgs)
        critical_lambda(bracket=bracket, tol=tol)
        members = [(v, cfg) for call, cfg in zip(calls, cfgs) for v in call]
        assert len(members) == len(set(members)) and all(calls)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("root", _ROOTS)
    def test_sign_values_never_become_samples(self, monkeypatch, shape, root):
        # at the sign tolerance the stand-in keeps the sign of U but not its
        # magnitude: the root equals the one from honest values, bit for bit
        _count_family_calls(monkeypatch, self.SHAPES[shape](root))
        honest = critical_lambda(tol=1e-6)
        calls = _count_family_calls(monkeypatch, self.SHAPES[shape](root))
        counted_family = analysis._midgap_energy_family

        def garbled_family(omega_p_as, cfg):
            res = counted_family(omega_p_as, cfg)
            if cfg.rel_tol == analysis._SIGN_REL_TOL:
                return SimpleNamespace(value=np.sign(res.value) * (12345.0 + np.arange(len(omega_p_as)))[:, None])
            return res

        monkeypatch.setattr(analysis, "_midgap_energy_family", garbled_family)
        assert critical_lambda(tol=1e-6) == honest
        if shape != "linear":  # a check failed, so its point was integrated at both tolerances
            assert len(calls) > 2

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("root", _ROOTS)
    @pytest.mark.parametrize("bracket", [(50.0, 200.0), (10.0, 1e4)])
    @pytest.mark.parametrize("tol", [np.float32(1e-6), np.float16(1e-3)], ids=("float32", "float16"))
    def test_numpy_scalar_tol_is_taken_as_its_float(self, monkeypatch, shape, root, bracket, tol):
        # in float32 or float16 arithmetic the check points r -+ tol/2 round onto r
        # and the bracket stops shrinking; a round counter turns such a loop into a failure
        _count_family_calls(monkeypatch, self.SHAPES[shape](root))
        expected = critical_lambda(bracket=bracket, tol=float(tol))
        derivative, rounds = analysis.chebder, []

        def counted_chebder(coefficients):
            rounds.append(None)
            if len(rounds) > 200:
                raise AssertionError("critical_lambda did not end within 200 rounds")
            return derivative(coefficients)

        monkeypatch.setattr(analysis, "chebder", counted_chebder)
        lam = critical_lambda(bracket=bracket, tol=tol)
        assert type(lam) is float and lam == expected

    def test_a_check_point_on_a_known_sample_is_not_integrated_again(self, monkeypatch):
        # the root 199.9 puts r + tol/2 on the bracket end 200.0, a sample of the first family
        calls = _count_family_calls(monkeypatch, lambda x: 199.9 - x)
        assert abs(critical_lambda(bracket=(50.0, 200.0), tol=0.5) - 199.9) <= 0.25
        assert [len(call) for call in calls] == [15, 1]
        assert calls[0][-1] == 200.0 and calls[1] == [199.5]

    def test_exact_zero_is_returned(self, monkeypatch):
        # zero on all of [90, 110], so a sample lands on an exact zero
        calls = _count_family_calls(monkeypatch, lambda x: min(0.0, 110.0 - x) + max(0.0, 90.0 - x))
        lam = critical_lambda()
        assert 90.0 <= lam <= 110.0 and len(calls) == 1
        _count_family_calls(monkeypatch, lambda x: 100.0 - x)
        assert critical_lambda(bracket=(50.0, 100.0)) == 100.0

    def test_tol_below_the_float_spacing_ends(self, monkeypatch):
        # near 96.6 floats are 1.4e-14 apart, so a bracket 1e-15 wide never
        # forms; the sign alone never reads exactly zero, and the search ends
        # between adjacent floats
        calls = _count_family_calls(monkeypatch, lambda x: math.copysign(1.0, 96.60661 - x))
        assert abs(critical_lambda(tol=1e-15) - 96.60661) <= 1e-13
        assert len(calls) <= _call_bound(150.0, 1e-15)

    def test_no_sign_change(self, monkeypatch):
        calls = _count_family_calls(monkeypatch, lambda x: 1.0 + x)
        with pytest.raises(NoSignChange):
            critical_lambda()
        assert len(calls) == 1


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

    @pytest.mark.parametrize(
        "omega_p_ev, lambda_c",
        [(np.float32(14.8), 96.6), (14.8, np.float32(96.6)), (np.int64(15), np.float16(96.6))],
        ids=("wp-float32", "lambda-float32", "wp-int64-lambda-float16"),
    )
    def test_numpy_arguments_are_taken_as_their_floats(self, omega_p_ev, lambda_c):
        width = critical_separation_physical(omega_p_ev, lambda_c=lambda_c)
        assert type(width) is float
        assert width == critical_separation_physical(float(omega_p_ev), lambda_c=float(lambda_c))

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
        with pytest.raises(DomainError, match="z_small"):
            wall_reduction_check(1.0, Drude(1.0), "x")
        with pytest.raises(DomainError, match="width"):
            wall_reduction_check("x", Drude(1.0), 0.1)


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
        # integrating the swapped-bracket integrand on the t rule reproduces b2,
        # which the Drude closure integrates over t exactly, within both errors
        from casimir_fields import CAVITY_PREFACTOR, SINGLE_PREFACTOR
        from casimir_fields.dielectric import reflection_values
        from casimir_fields.integrand import cavity_terms, single_bracket

        model, z = Drude(5.0), 0.4

        def swapped_single(u, t):
            r, rp = reflection_values(model, u, t)
            return SINGLE_PREFACTOR * u**3 * single_bracket(FieldKind.E_SQUARED, rp, r, t) * np.exp(-2.0 * u * z)

        direct = integrate_semi_infinite(integrand_function(FieldKind.B_SQUARED, SingleInterface(), model, z), 2 * z)
        via_swap = integrate_semi_infinite(swapped_single, 2 * z)
        assert abs(via_swap.value - direct.value) <= via_swap.error_estimate + direct.error_estimate

        def swapped_cavity(u, t):
            r, rp = reflection_values(model, u, t)
            const, pos = cavity_terms(FieldKind.E_SQUARED, rp, r, u, t, 1.0, z)
            return CAVITY_PREFACTOR * u**3 * (const + pos)

        direct = integrate_semi_infinite(integrand_function(FieldKind.B_SQUARED, Cavity(1.0), model, z), 2 * z)
        via_swap = integrate_semi_infinite(swapped_cavity, 2 * z)
        assert abs(via_swap.value - direct.value) <= via_swap.error_estimate + direct.error_estimate

    @pytest.mark.parametrize("eps", [1.001, 4.0, 100.0])
    def test_single_interface_constant_eps_falls_as_z_to_the_minus_four(self, eps):
        # r and r' depend on t alone, so the u integral is u^3 e^{-2uz}'s, 3/(8 z^4):
        # at 4z every node of the mesh scales by 1/4 and every field by 1/256
        for z in (0.01, 0.1):
            near, far = compute_point(SingleInterface(), ConstantEpsilon(eps), z), compute_point(
                SingleInterface(), ConstantEpsilon(eps), 4.0 * z
            )
            for field in ("e2", "b2", "u"):
                assert getattr(near, field) / getattr(far, field) == pytest.approx(256.0, rel=4 * np.finfo(float).eps)


def _lerch_fields(eps, a, z):
    """<E^2> and <B^2> of a constant-eps cavity at z, from the u integral in closed form; and a bound on their error.

    With 1/D = sum_n r^{2n} e^{-2nua} the u integral of every term is
    elementary: the constant bracket gives -t^2 3/(8 a^4) (Li_4(r^2) +
    Li_4(r'^2)), and r/D times the envelope gives
    S(r) = 3/16 sum_{n >= 0} r^{2n+1} ((na + a - z)^-4 + (na + z)^-4), a
    Lerch sum, and likewise for r'. The series converge geometrically, as
    |r|, r' <= (eps - 1)/(eps + 1), and are cut where that ratio's powers
    fall below 1e-18; scipy's quad_vec then integrates over t.
    """
    from scipy.integrate import quad_vec

    n = np.arange(1.0 + math.ceil(math.log(1e-18) / (2.0 * math.log((eps - 1.0) / (eps + 1.0)))))
    lerch = 3.0 / 16.0 * ((n * a + a - z) ** -4 + (n * a + z) ** -4)
    polylog = 3.0 / (8.0 * a**4) / n[1:] ** 4

    def fields(t):
        q = math.sqrt(1.0 + (eps - 1.0) * t * t)
        r, rp, tt = (1.0 - q) / (1.0 + q), (eps - q) / (eps + q), t * t
        constant = -tt * (polylog @ (r * r) ** n[1:] + polylog @ (rp * rp) ** n[1:])
        s, sp = lerch @ r ** (2.0 * n + 1.0), lerch @ rp ** (2.0 * n + 1.0)
        return CAVITY_PREFACTOR * np.array([constant - tt * s + (2.0 - tt) * sp, constant + (2.0 - tt) * s - tt * sp])

    return quad_vec(fields, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, norm="max")


class TestConstantEpsilonCavity:
    @pytest.mark.parametrize("eps", [4.0, 100.0])
    def test_profile_matches_the_lerch_sums(self, eps):
        # the engine's err is about 3e-10 relative there, the rows' distance from the sums 5e-15
        zs = [0.01, 0.03, 0.1, 0.2, 0.35, 0.5]
        for point in profile_at(Cavity(1.0), ConstantEpsilon(eps), zs).points:
            (e2, b2), reference_error = _lerch_fields(eps, 1.0, point.z)
            assert abs(point.e2 - e2) <= point.err + reference_error
            assert abs(point.b2 - b2) <= point.err + reference_error


GEOMETRY_CASES = [(SingleInterface(), [0.01, 0.3, 2.0]), (Cavity(1.0), [0.02, 0.3, 0.5])]


@pytest.mark.parametrize("geometry, zs", GEOMETRY_CASES, ids=("single", "cavity"))
def test_huge_permittivity_approaches_the_perfect_conductor(geometry, zs):
    # the reflection factors are products of ratios, so eps near the largest float
    # overflows nothing (any RuntimeWarning fails the test) and meets the PC rows
    for eps in (1e300, 1.7e308):
        for dielectric, conductor in zip(
            profile_at(geometry, ConstantEpsilon(eps), zs).points, profile_at(geometry, PerfectConductor(), zs).points
        ):
            assert dielectric.e2 == pytest.approx(conductor.e2, rel=1e-12)
            assert dielectric.b2 == pytest.approx(conductor.b2, rel=1e-12)


@pytest.mark.parametrize("geometry, zs", GEOMETRY_CASES, ids=("single", "cavity"))
@pytest.mark.parametrize(
    "model", [Drude(2.0), ConstantEpsilon(4.0), PerfectConductor(), Vacuum()], ids=("drude", "eps", "pc", "vacuum")
)
def test_every_package_integral_takes_its_t_integral_exactly(monkeypatch, geometry, zs, model):
    # no package integrand is lifted onto the engine's fixed t rule: profiles, points and plain fields alike
    def refused(*args):
        raise AssertionError("a package integrand was lifted onto the fixed t rule")

    monkeypatch.setattr(quadrature, "_lifted", refused)
    results = []
    integrate = analysis.integrate_semi_infinite

    def recording(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(analysis, "integrate_semi_infinite", recording)
    profile_at(geometry, model, zs)
    compute_point(geometry, model, zs[1])
    for kind in FieldKind:
        f = integrand_function(kind, geometry, model, zs[1])
        results.append(integrate_semi_infinite(f, decay_scale_for(geometry, zs[1])))
    assert len(results) == 5
