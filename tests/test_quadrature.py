import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from casimir_fields import (
    Cavity,
    ConstantEpsilon,
    DivergesAtBoundary,
    DomainError,
    Drude,
    FieldKind,
    InvalidDecayScale,
    NonConvergence,
    PerfectConductor,
    QuadratureConfig,
    SingleInterface,
    decay_scale_for,
    integrand_function,
    integrate_fixed_grid,
    integrate_semi_infinite,
)
from casimir_fields import integrand, quadrature
from casimir_fields.integrand import position_envelope


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-8 and cfg.abs_tol == 1e-14
        assert cfg.tail_exponent_budget == 60.0
        assert cfg.max_subdivisions == 2000
        assert cfg.inner_rule_order == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-9},
            {"abs_tol": -1.0},
            {"tail_exponent_budget": 29.0},
            {"max_subdivisions": 9},
            {"inner_rule_order": 1},
            {"decay_scale_floor": 0.0},
            # non-finite floats would "converge" with a meaningless err or burn every split on NaN
            {"rel_tol": math.inf},
            {"rel_tol": math.nan},
            {"abs_tol": math.inf},
            {"tail_exponent_budget": math.inf},
            {"tail_exponent_budget": math.nan},
            {"decay_scale_floor": math.inf},
            {"rel_tol": "1e-8"},
            {"rel_tol": True},
            # counts must be integers; a float order used to fail inside numpy's leggauss
            {"inner_rule_order": 16.0},
            {"inner_rule_order": True},
            {"max_subdivisions": 2000.0},
            {"max_subdivisions": np.float64(2000.0)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inner_rule_order": np.int64(8)},
            {"max_subdivisions": np.int32(100)},
            {"rel_tol": np.float32(1e-6), "abs_tol": 0},
            {"tail_exponent_budget": 30, "decay_scale_floor": np.float64(1e-3)},
        ],
    )
    def test_numpy_and_int_configs_accepted(self, kwargs):
        res = integrate_semi_infinite(lambda u, t: np.exp(-u) * (1.0 + 0.0 * t), 1.0, QuadratureConfig(**kwargs))
        assert res.value == pytest.approx(1.0, rel=1e-5)


class TestEngineBasics:
    def test_zero_integrand(self):
        res = integrate_semi_infinite(lambda u, t: np.zeros(np.broadcast_shapes(u.shape, t.shape)), 1.0)
        assert res.value == 0.0
        assert res.error_estimate == 0.0
        assert res.evaluations > 0

    def test_analytic_gamma_factor(self):
        # integral of c u^3 e^{-2uz} (1 - t^2) du dt = c * (2/3) * 6 / (2z)^4
        c, z = 0.37, 0.7
        expected = c * (2.0 / 3.0) * 6.0 / (2.0 * z) ** 4

        def f(u, t):
            return c * u**3 * np.exp(-2.0 * u * z) * (1.0 - t * t)

        res = integrate_semi_infinite(f, 2.0 * z)
        assert res.value == pytest.approx(expected, rel=1e-10)
        assert abs(res.value - expected) <= 10.0 * max(res.error_estimate, 1e-15)

    def test_pc_cavity_energy_constant_in_z(self):
        a = 1.3
        expected = -(math.pi**2) / (720.0 * a**4)
        for z in (0.2, 0.5 * a, 0.9 * a):
            f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(a), PerfectConductor(), z)
            res = integrate_semi_infinite(f, decay_scale_for(Cavity(a), z))
            assert res.value == pytest.approx(expected, rel=1e-8)

    def test_truncation_point_reported(self):
        f = integrand_function(FieldKind.ENERGY_DENSITY, SingleInterface(), Drude(1.0), 0.5)
        res = integrate_semi_infinite(f, 1.0)
        assert res.truncation_u == pytest.approx(60.0)

    def test_invalid_decay_scale(self):
        f = lambda u, t: u * 0.0 + t * 0.0
        for bad in (0.0, -1.0, math.nan, math.inf, True, "1.0"):
            with pytest.raises(InvalidDecayScale):
                integrate_semi_infinite(f, bad)
        for good in (np.float32(1.0), np.int64(2)):
            assert integrate_semi_infinite(f, good).value == 0.0

    def test_decay_scale_below_floor(self):
        f = lambda u, t: u * 0.0 + t * 0.0
        with pytest.raises(DivergesAtBoundary):
            integrate_semi_infinite(f, 1e-9)
        # a custom floor moves the refusal point
        cfg = QuadratureConfig(decay_scale_floor=1e-2)
        with pytest.raises(DivergesAtBoundary):
            integrate_semi_infinite(f, 1e-3, cfg)

    def test_nonconvergence_carries_best_result(self):
        calls = []

        def wiggly(u, t):
            calls.append((np.shape(u)[0], np.shape(t)[-1]))
            return np.cos(40.0 * u) ** 2 * np.exp(-u) * np.ones_like(t)

        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=10)
        with pytest.raises(NonConvergence) as excinfo:
            integrate_semi_infinite(wiggly, 1.0, cfg)
        result = excinfo.value.result
        assert result is not None
        assert math.isfinite(result.value)
        assert result.error_estimate > 0.0
        # exact value: (1/2)(1 + 1/(1 + 6400))
        assert result.value == pytest.approx(0.5 * (1.0 + 1.0 / 6401.0), rel=1e-2)
        # the panels run on the t rule of the last call; after the 136 seed rows
        # every split adds 30, and the splits use up the budget, never more
        panel_rows = sum(rows for rows, width in calls if width == calls[-1][1])
        assert panel_rows - 136 == 30 * cfg.max_subdivisions

    def test_rounds_cut_short_by_the_budget_split_the_worst_panels(self):
        # a round splits at most half the splits left, its largest-error panels
        # first, so 10 splits of this integrand refine the panels that carry
        # its mass, as ten single splits of the worst panel do
        rows = []

        def wiggly(u, t):
            if t is quadrature.T_INTEGRAL:
                rows.append(np.shape(u)[0])
                row = np.cos(40.0 * u) ** 2 * np.exp(-u)
                return np.stack((row, row), axis=-1).view(quadrature.T_INTEGRAL_DTYPE)[..., 0]
            raise AssertionError("exact t integrals take no t rule")

        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=10)
        with pytest.raises(NonConvergence, match="after 10 subdivisions"):
            integrate_semi_infinite(wiggly, 1.0, cfg)
        assert rows == [136, 30 * 5, 30 * 3, 30, 30]


class TestRefinementRounds:
    def test_fewest_largest_error_panels_of_each_pair(self):
        errors = np.array([[1.0, 0.0], [4.0, 0.5], [2.0, 1.0], [0.5, 5.0]])  # (panels, pairs)
        # pair 0 may keep 1.5: without panels 1 and 2 it keeps 1.5; pair 1 may
        # keep 1: without panels 3 and 2 it keeps 0.5, without panel 3 alone 1.5
        allowance = np.array([1.5, 1.0])
        assert quadrature._panels_to_split(errors, allowance, 10).tolist() == [1, 2, 3]
        # cut short, the panels with the largest error stay: 5 and 4
        assert quadrature._panels_to_split(errors, allowance, 2).tolist() == [1, 3]

    def test_every_panel_when_no_number_is_enough(self):
        # the tail bound and t term alone exceed what the pair may keep
        errors = np.array([[1.0], [0.0], [2.0], [1.0]])
        assert quadrature._panels_to_split(errors, np.array([-1.0]), 10).tolist() == [0, 1, 2, 3]
        # ties go by position
        assert quadrature._panels_to_split(errors, np.array([-1.0]), 2).tolist() == [0, 2]

    def test_at_least_one_panel_per_pair(self):
        # the pair's Kronrod sum can sit within its allowance by roundoff alone
        assert quadrature._panels_to_split(np.array([[1.0], [3.0]]), np.array([4.0]), 10).tolist() == [1]


class TestBatchedEngine:
    @staticmethod
    def _family(c):
        # position bracket c u^3 (1 - t^2) under envelope exp(-u s_j), no constant
        return lambda u, t: (None, c * u**3 * (1.0 - t * t), -2.0 * c * u**3 * (1.0 - t * t))

    def test_each_position_meets_its_exact_value(self):
        c = 0.37
        scales = np.array([0.02, 0.3, 1.0, 7.5])
        res = integrate_semi_infinite(self._family(c), scales, envelope=lambda u: np.exp(-np.outer(scales, u)))
        exact = c * (2.0 / 3.0) * 6.0 / scales**4
        assert res.value.shape == res.error_estimate.shape == (2, 4)
        np.testing.assert_allclose(res.value, [exact, -2.0 * exact], rtol=1e-10)
        assert np.all(np.abs(res.value - [exact, -2.0 * exact]) <= res.error_estimate)
        assert res.truncation_u == pytest.approx(60.0 / 0.02)

    def test_refines_until_every_position_converges(self):
        # the fast-decaying first position converges on the seed mesh; the
        # second needs many splits to resolve cos^2(5u) up to u ~ 60
        scales = np.array([50.0, 1.0])
        f = lambda u, t: (None, np.cos(5.0 * u) ** 2 * np.ones_like(t))
        res = integrate_semi_infinite(f, scales, envelope=lambda u: np.exp(-np.outer(scales, u)))
        exact = 0.5 * (1.0 / scales + scales / (scales**2 + 100.0))
        np.testing.assert_allclose(res.value[0], exact, rtol=1e-6)

    def test_one_position_is_the_plain_call(self):
        f = integrand_function(FieldKind.E_SQUARED, Cavity(1.0), Drude(30.0), 0.25)
        plain = integrate_semi_infinite(f, 0.5)
        batched = integrate_semi_infinite(lambda u, t: (None, f(u, t)), [0.5], envelope=lambda u: np.ones((1, u.size)))
        assert batched.value[0, 0] == plain.value
        assert batched.error_estimate[0, 0] == plain.error_estimate
        assert batched.evaluations == plain.evaluations

    def test_each_family_member_keeps_its_own_t_term(self):
        # midgap Drude(1) needs 2 graded t levels, Drude(96.60661) 1; the family
        # runs at 2. At the root the second member's tolerance is abs_tol, which
        # the first member's rho (about 1e-10) times its magnitude would exceed
        # 230-fold, so with one rho for the family it could not converge
        wps = (1.0, 96.60661)
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(wp) for wp in wps], 0.5)
        family = integrate_semi_infinite(_on_a_t_rule(f), [1.0], envelope=quadrature.unit_envelope)
        alone = [_probed_energy_density(Cavity(1.0), Drude(wp), [0.5]) for wp in wps]
        assert [res.t_levels for res in alone] == [2, 1] and family.t_levels == 2
        assert QuadratureConfig().rel_tol * abs(alone[1].value) < QuadratureConfig().abs_tol
        assert family.value.shape == family.error_estimate.shape == (2, 1)
        for (value,), (err,), single in zip(family.value, family.error_estimate, alone):
            assert abs(value - single.value) <= err + single.error_estimate
            # the shared rule's rho for the midgap member sits at the roundoff
            # floor (1.05e-15 at 1 level, 1.17e-15 at 2), so its t term may
            # grow by a few 1e-18; the u-panel part, refined for both, falls
            assert err <= (1.0 + 1e-3) * single.error_estimate

    def test_family_members_with_exact_t_integrals(self):
        # each member keeps its own roundoff allowance, 16 ulps of its own magnitude
        wps = (1.0, 96.60661, 1e4)
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(wp) for wp in wps], 0.5)
        family = integrate_semi_infinite(f, [1.0], envelope=quadrature.unit_envelope)
        alone = [_energy_density(Cavity(1.0), Drude(wp), [0.5]) for wp in wps]
        assert family.t_order is None and all(res.t_order is None for res in alone)
        for (value,), (err,), single in zip(family.value, family.error_estimate, alone):
            assert abs(value - single.value) <= err + single.error_estimate
            assert err <= (1.0 + 1e-3) * single.error_estimate

    def test_batched_scales_are_checked_before_evaluation(self):
        def never(u, t):
            raise AssertionError("evaluated")

        envelope = lambda u: np.ones((3, u.size))
        with pytest.raises(InvalidDecayScale):
            integrate_semi_infinite(never, [1.0, math.nan], envelope=envelope)
        with pytest.raises(DivergesAtBoundary):
            integrate_semi_infinite(never, [1.0, 1e-9], envelope=envelope)
        with pytest.raises(DomainError):
            integrate_semi_infinite(never, [], envelope=envelope)
        # a bad scale in the middle of a batch, in a list or a float array, is named in the error
        for scales, error, name in (
            ([1.0, True, 2.0], InvalidDecayScale, "True"),
            ([1.0, "0.5", 2.0], InvalidDecayScale, "'0.5'"),
            ([1.0, math.nan, 2.0], InvalidDecayScale, "nan"),
            (np.array([1.0, math.nan, 2.0]), InvalidDecayScale, "nan"),
            ([1.0, -math.inf, 2.0], InvalidDecayScale, "-inf"),
            ([1.0, 1e-9, 2.0], DivergesAtBoundary, "1e-09"),
            (np.array([1.0, 1e-9, 2.0]), DivergesAtBoundary, "1e-09"),
            # the first bad scale decides which error is raised
            ([1.0, 1e-9, math.nan], DivergesAtBoundary, "1e-09"),
            ([1.0, math.nan, 1e-9], InvalidDecayScale, "nan"),
        ):
            with pytest.raises(error, match=name):
                integrate_semi_infinite(never, scales, envelope=envelope)


class TestEngineProperties:
    def test_tolerance_monotonicity_against_pc_oracle(self):
        a, z = 1.0, 0.37
        expected = -(math.pi**2) / 720.0
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(a), PerfectConductor(), z)
        previous = None
        rel = 1e-4
        while rel >= 1e-9:
            res = integrate_semi_infinite(f, decay_scale_for(Cavity(a), z), QuadratureConfig(rel_tol=rel))
            discrepancy = abs(res.value - expected)
            if previous is not None:
                assert discrepancy <= previous + 1e-15
            previous = discrepancy
            rel /= 2.0

    def test_truncation_soundness(self):
        f = integrand_function(FieldKind.ENERGY_DENSITY, SingleInterface(), Drude(2.0), 0.4)
        base = integrate_semi_infinite(f, 0.8, QuadratureConfig(tail_exponent_budget=60.0))
        wide = integrate_semi_infinite(f, 0.8, QuadratureConfig(tail_exponent_budget=120.0))
        assert abs(base.value - wide.value) < max(base.error_estimate, 1e-16)

    def test_bitwise_determinism(self):
        f = integrand_function(FieldKind.B_SQUARED, Cavity(1.0), Drude(30.0), 0.25)
        first = integrate_semi_infinite(f, 0.5)
        second = integrate_semi_infinite(f, 0.5)
        assert first.value == second.value
        assert first.error_estimate == second.error_estimate
        assert first.evaluations == second.evaluations

    def test_error_estimate_is_honest_on_pc_cavity(self):
        f = integrand_function(FieldKind.E_SQUARED, Cavity(1.0), PerfectConductor(), 0.3)
        res = integrate_semi_infinite(f, 0.6)
        from casimir_fields import pc_cavity_e2

        assert abs(res.value - pc_cavity_e2(0.3, 1.0)) <= 50.0 * max(res.error_estimate, 1e-16)


class TestPlainCallable:
    def test_takes_the_t_rule(self):
        # the benchmark's set-up integral: a plain callable has no exact t
        # integrals, so the probe chooses a t rule; its integral is 6 * 2/3
        res = integrate_semi_infinite(lambda u, t: u**3 * np.exp(-u) * (1.0 - t * t), 1.0)
        assert abs(res.value - 4.0) <= res.error_estimate
        assert res.t_order is not None and res.t_levels is not None


def _on_a_t_rule(f):
    """f without its exact t integrals: a copy of T_INTEGRAL is an empty t row like any other, so the engine probes a t rule for f."""
    return lambda u, t: f(u, np.array(t) if t is quadrature.T_INTEGRAL else t)


def _field_brackets(geometry, model, zs, cfg=None, t_rule=False):
    """e2 and b2 at every z from one batched engine call; on the probed t rule with ``t_rule``."""
    f = integrand_function(None, geometry, model)
    scales = [decay_scale_for(geometry, z) for z in zs]
    return integrate_semi_infinite(_on_a_t_rule(f) if t_rule else f, scales, cfg, envelope=position_envelope(geometry, zs))


def _energy_density(geometry, model, zs, cfg=None, t_rule=False):
    """U at the one position in zs from a plain engine call; on the probed t rule with ``t_rule``."""
    (z,) = zs
    f = integrand_function(FieldKind.ENERGY_DENSITY, geometry, model, z)
    return integrate_semi_infinite(_on_a_t_rule(f) if t_rule else f, decay_scale_for(geometry, z), cfg)


# The Drude integrands integrate over t exactly; on the probed t rule they keep covering the probe.
_probed_brackets = functools.partial(_field_brackets, t_rule=True)
_probed_energy_density = functools.partial(_energy_density, t_rule=True)


def _full_depth(monkeypatch, integrate, *args):
    """integrate(*args) with the probe's depth pinned to the maximum: a reference free of t-depth error."""
    probe = quadrature._probe_t_rule

    def full_depth_probe(*probe_args):
        order, _, rho, evaluations = probe(*probe_args)
        return order, quadrature._T_RULE_LEVELS, rho, evaluations

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_probe_t_rule", full_depth_probe)
        return integrate(*args)


class TestTRuleError:
    @pytest.mark.parametrize(
        "integrate, geometry, model, zs",
        [
            (_probed_brackets, SingleInterface(), Drude(1.0), [1e-3]),
            (_probed_brackets, SingleInterface(), Drude(1.0), [1.0]),
            # the profile where the u-panel part alone fell short by 1.6x
            (_probed_brackets, SingleInterface(), Drude(1.0), list(np.geomspace(1e-3, 5.0, 64))),
            (_probed_brackets, Cavity(1.0), Drude(200.0), [0.02]),
            (_probed_brackets, Cavity(1.0), Drude(200.0), [0.5]),
            (_probed_brackets, Cavity(1.0), Drude(8.5), [0.5]),
            (_probed_brackets, SingleInterface(), ConstantEpsilon(4.0), [0.5]),
            (_probed_brackets, Cavity(1.0), PerfectConductor(), [0.3]),
            # a plain Drude cavity energy density C + e P changes sign in t at every u
            (_probed_energy_density, Cavity(1.0), Drude(97.0), [0.5]),
            (_probed_energy_density, Cavity(1.0), Drude(200.0), [0.5]),
        ],
        ids=(
            "drude1-1e-3", "drude1-1", "drude1-profile", "drude200-0.02", "drude200-0.5", "drude8.5", "eps4", "pc",
            "plain-u-drude97", "plain-u-drude200",
        ),
    )
    def test_default_order_error_is_covered(self, monkeypatch, integrate, geometry, model, zs):
        # the reference runs at order 128 and full depth, so err must cover
        # the error of both the order and the depth the probe chose
        res = integrate(geometry, model, zs)
        reference = _full_depth(monkeypatch, integrate, geometry, model, zs, QuadratureConfig(inner_rule_order=128))
        assert reference.t_levels == quadrature._T_RULE_LEVELS
        assert np.all(np.abs(res.value - reference.value) <= res.error_estimate)
        # the exact t integrals meet the same reference within their own err
        exact = integrate(geometry, model, zs, t_rule=False)
        assert exact.t_order is None
        assert np.all(np.abs(exact.value - reference.value) <= exact.error_estimate)

    @pytest.mark.parametrize("a", [9.0, 5.0 * math.pi])
    def test_t_term_of_a_sign_changing_integrand(self, a):
        # cos(a t) - sin(a)/a integrates to zero in t at every u, so the value
        # is the t rule's error alone; a t term scaled by |integral of f dt|
        # instead of the integral of |f| would report 1e-5 of it or less
        f = lambda u, t: np.exp(-u) * (np.cos(a * t) - math.sin(a) / a)
        res = integrate_semi_infinite(f, 1.0, QuadratureConfig(inner_rule_order=4, rel_tol=1e-3, abs_tol=1e-3))
        assert res.value != 0.0
        assert res.error_estimate >= 0.5 * abs(res.value)

    @pytest.mark.parametrize("start, rel_tol, order", [(4, 1e-8, 16), (16, 1e-13, 32)])
    def test_short_start_order_escalates(self, monkeypatch, start, rel_tol, order):
        # Drude(1) at z = 1e-3 has the sharpest t spike of the field integrands
        case = (SingleInterface(), Drude(1.0), [1e-3])
        escalated = _probed_brackets(*case, QuadratureConfig(inner_rule_order=start, rel_tol=rel_tol))
        direct = _probed_brackets(*case, QuadratureConfig(inner_rule_order=order, rel_tol=rel_tol))
        np.testing.assert_array_equal(escalated.value, direct.value)
        np.testing.assert_allclose(escalated.error_estimate, direct.error_estimate, rtol=1e-6)
        assert (escalated.t_order, escalated.t_levels) == (direct.t_order, direct.t_levels)
        assert escalated.t_order == order
        assert escalated.evaluations > direct.evaluations  # the extra probes
        reference = _full_depth(monkeypatch, _probed_brackets, *case, QuadratureConfig(inner_rule_order=128, rel_tol=rel_tol))
        assert np.all(np.abs(escalated.value - reference.value) <= escalated.error_estimate)

    def test_tail_above_tolerance_stops_at_once(self):
        # the tail bound beyond u_max = 30 exceeds 1e-10 relative, and no split reduces it
        cfg = QuadratureConfig(tail_exponent_budget=30.0, rel_tol=1e-10)
        with pytest.raises(NonConvergence, match="tail_exponent_budget") as excinfo:
            _energy_density(SingleInterface(), Drude(1.0), [0.5], cfg)
        assert excinfo.value.result.evaluations < 300_000

    def test_too_short_t_rule_stops_at_once(self):
        # three doublings from order 2 reach 16, whose t error is far above 1e-13
        cfg = QuadratureConfig(inner_rule_order=2, rel_tol=1e-13)
        with pytest.raises(NonConvergence, match="inner_rule_order") as excinfo:
            _probed_brackets(SingleInterface(), Drude(1.0), [1e-3], cfg)
        assert excinfo.value.result.evaluations < 300_000

    def test_roundoff_allowance_above_tolerance_stops_at_once(self):
        # exact t integrals carry 16 ulps of the magnitude; a tolerance below that cannot be met
        cfg = QuadratureConfig(rel_tol=1e-16, abs_tol=0.0)
        with pytest.raises(NonConvergence, match="roundoff allowance") as excinfo:
            _energy_density(Cavity(1.0), Drude(200.0), [0.5], cfg)
        assert excinfo.value.result.evaluations == 136 and excinfo.value.result.t_order is None


def _spike_integrand(width, narrow_at_small_u=False):
    """e^-u / (1 + (t / s)^2), whose t spike is s = w / u wide, or s = w u wide with ``narrow_at_small_u``."""
    if narrow_at_small_u:
        return lambda u, t: np.exp(-u) / (1.0 + (t / (width * u)) ** 2)
    return lambda u, t: np.exp(-u) / (1.0 + (u * t / width) ** 2)


def _spike(width, narrow_at_small_u=False):
    """Engine result and scipy reference for `_spike_integrand`.

    Its t integral is s arctan(1 / s); scipy integrates that over u to 1e-13.
    """
    width_at = (lambda u: width * u) if narrow_at_small_u else (lambda u: width / u)
    g = lambda u: math.exp(-u) * width_at(u) * math.atan(1.0 / width_at(u))
    points = [width, 10.0 * width, 100.0 * width] if width < 1.0 else None
    near = quad(g, 0.0, 1.0, points=points, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    far = quad(g, 1.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return integrate_semi_infinite(_spike_integrand(width, narrow_at_small_u), 1.0), near + far


class TestTRuleDepth:
    @pytest.mark.parametrize("width", [1.0, 1e-2, 1e-3])
    def test_depth_error_is_covered(self, width):
        res, reference = _spike(width)
        assert abs(res.value - reference) <= res.error_estimate

    @pytest.mark.parametrize("width", [1e-1, 1e-2, 1e-3])
    def test_depth_error_is_covered_when_small_u_needs_it(self, width):
        # the spike narrows towards u = 0, so the probe rows below the top ones set the depth
        res, reference = _spike(width, narrow_at_small_u=True)
        assert abs(res.value - reference) <= res.error_estimate

    def test_depth_grows_as_the_spike_narrows(self):
        levels = [_spike(width)[0].t_levels for width in (1.0, 1e-2, 1e-3)]
        assert levels[0] < levels[1] < levels[2] < quadrature._T_RULE_LEVELS

    def test_midgap_integral_stays_shallow(self):
        # the Drude t spike, about wp / u wide, is wider than 1 on the midgap integrals
        res = _probed_energy_density(Cavity(1.0), Drude(97.0), [0.5])
        assert res.t_order == 16 and res.t_levels <= 2
        # two probe stages (3 rows x 1,056 t nodes, 7 x 576) and the 136 x 32 seed mesh: 11,552, then 2 splits of 960
        assert res.evaluations < 14_000

    def test_near_wall_integral_goes_deep(self):
        res = _probed_brackets(SingleInterface(), Drude(1.0), [1e-3])
        assert res.t_levels >= 5
        # the top probe rows pick this depth alone, so no row is probed at every depth
        # twice: 7,648 probe nodes, the 136 x 96 seed mesh and 3 splits of 2,880 make 29,344
        assert res.evaluations < 32_000


class TestRootAdjacentIntegrals:
    # Midgap integrals beside the sign change of U: their err sits within 30% of
    # abs_tol, so roundoff added to the t term would raise NonConvergence. They
    # take the exact t integrals; their u rows and their err must hold, and err
    # must meet the tolerance.
    @pytest.mark.parametrize(
        "wp, evaluations, err",
        [(96.60661, 286, 7.1159e-15), (97.0, 196, 4.3939e-13)],
        ids=("root", "beside-root"),
    )
    def test_plain_integral(self, wp, evaluations, err):
        res = _energy_density(Cavity(1.0), Drude(wp), [0.5])
        assert (res.t_order, res.t_levels, res.evaluations) == (None, None, evaluations)
        assert res.error_estimate == pytest.approx(err, rel=1e-2)
        cfg = QuadratureConfig()
        assert res.error_estimate <= max(cfg.rel_tol * abs(res.value), cfg.abs_tol)

    def test_splits_in_two_rounds(self):
        # the 5 panel splits of the root take one integrand call per round
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(96.60661), 0.5)
        rows = []

        def counted(u, t):
            rows.append(np.shape(u)[0])
            return f(u, t)

        res = integrate_semi_infinite(counted, 1.0)
        assert res.evaluations == sum(rows) == 286
        assert rows[0] == 136 and len(rows) - 1 <= 2
        assert res.error_estimate <= QuadratureConfig().abs_tol

    def test_family(self):
        wps = (95.0, 96.0, 96.60661, 97.0, 98.0)
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(wp) for wp in wps], 0.5)
        res = integrate_semi_infinite(f, [1.0], envelope=quadrature.unit_envelope)
        assert (res.t_order, res.t_levels, res.evaluations) == (None, None, 286)
        expected = [7.1924e-15, 7.1420e-15, 7.1159e-15, 7.0907e-15, 7.0479e-15]
        np.testing.assert_allclose(res.error_estimate[:, 0], expected, rtol=1e-2)
        assert np.all(res.error_estimate <= QuadratureConfig().abs_tol)


def _reference_probe(f, u, cfg):
    """Order, depth and rho from every u row at every depth of the order-n rule: what the two-stage probe must match."""
    threshold = quadrature._T_ERROR_FRACTION * cfg.rel_tol
    for doublings in range(quadrature._T_ORDER_DOUBLINGS + 1):
        order = cfg.inner_rule_order * 2**doublings
        t_depths, w_depths = quadrature._depth_rules(order)
        t_hi, w_hi = quadrature._graded_t_rule(2 * order, quadrature._T_RULE_LEVELS)
        t = np.concatenate((t_depths, t_hi))
        brackets = quadrature._bracket_list(f(u[:, None], t[None, :]))
        rho = np.max([quadrature._depth_errors(bracket, w_depths, w_hi) for bracket in brackets], axis=0)
        if rho[-1] <= threshold:
            break
    qualified = np.flatnonzero(rho <= threshold)
    levels = int(qualified[0]) + 1 if qualified.size else quadrature._T_RULE_LEVELS
    return order, levels, float(rho[levels - 1])


def _probe_calls(monkeypatch, integrate, *args):
    """integrate(*args), and the (arguments, result) of every probe it ran."""
    probe, calls = quadrature._probe_t_rule, []

    def recording_probe(*probe_args):
        calls.append((probe_args, probe(*probe_args)))
        return calls[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_probe_t_rule", recording_probe)
        return integrate(*args), calls


def _counted(f):
    """f, counting the nodes of its values as the benchmark tracer does, and the one-element list that holds the count.

    The values cover the (u, t) grid, or the u rows where f integrates over t itself.
    """
    nodes = [0]

    def counted(u, t):
        out = f(u, t)
        nodes[0] += np.broadcast(*out).size if isinstance(out, tuple) else np.size(out)
        return out

    return counted, nodes


_MIDGAP_WPS, _SINGLE_ZS = (1.0, 10.0, 97.0, 100.0, 1e3, 1e4), (1e-5, 1e-3, 0.1, 0.5)


class TestTwoStageProbe:
    @pytest.mark.parametrize(
        "integrate, geometry, model, zs",
        [(_probed_energy_density, Cavity(1.0), Drude(wp), [0.5]) for wp in _MIDGAP_WPS]
        + [(_probed_brackets, SingleInterface(), Drude(1.0), [z]) for z in _SINGLE_ZS]
        + [(_probed_brackets, SingleInterface(), ConstantEpsilon(4.0), [0.5])],
        ids=[f"midgap-drude{wp:g}" for wp in _MIDGAP_WPS] + [f"drude1-{z:g}" for z in _SINGLE_ZS] + ["eps4"],
    )
    def test_matches_the_all_rows_probe(self, monkeypatch, integrate, geometry, model, zs):
        res, calls = _probe_calls(monkeypatch, integrate, geometry, model, zs)
        ((args, (order, levels, rho, _)),) = calls
        ref_order, ref_levels, ref_rho = _reference_probe(*args)
        assert (order, levels) == (ref_order, ref_levels) == (res.t_order, res.t_levels)
        # the reference's rho is over every bracket, the probe's one per field, so
        # it is their largest; both reduce the same bracket values, in products of
        # different shapes, so they agree to a few float64 ulps of the unit-normalised t sums
        assert rho.max() >= ref_rho - 32 * np.finfo(float).eps

    def test_stage_two_deepens_for_the_lower_rows(self, monkeypatch):
        f = _spike_integrand(1e-2, narrow_at_small_u=True)
        _, ((args, (order, levels, rho, _)),) = _probe_calls(monkeypatch, integrate_semi_infinite, f, 1.0)
        _, u, cfg = args
        top_levels = _reference_probe(f, u[-quadrature._PROBE_TOP_ROWS :], cfg)[1]
        assert (order, levels) == _reference_probe(*args)[:2]
        assert levels > top_levels
        assert rho <= quadrature._T_ERROR_FRACTION * cfg.rel_tol


class TestEvaluationCount:
    # a package integral counts u rows, one per exact t integral; one on a t rule counts (u, t) nodes
    def test_plain_call(self):
        f, nodes = _counted(integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(97.0), 0.5))
        res = integrate_semi_infinite(f, 1.0)
        assert res.evaluations == nodes[0] and res.t_order is None

    def test_plain_call_on_a_t_rule(self):
        f, nodes = _counted(_on_a_t_rule(integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(97.0), 0.5)))
        res = integrate_semi_infinite(f, 1.0)
        assert res.evaluations == nodes[0] and res.t_order == 16

    def test_batched_call(self):
        geometry, zs = SingleInterface(), [1e-3, 0.1, 2.0]
        for model in (Drude(1.0), ConstantEpsilon(4.0)):
            for t_rule in (False, True):
                f, nodes = _counted(integrand_function(None, geometry, model))
                scales = [decay_scale_for(geometry, z) for z in zs]
                res = integrate_semi_infinite(
                    _on_a_t_rule(f) if t_rule else f, scales, envelope=position_envelope(geometry, zs)
                )
                assert res.evaluations == nodes[0]
                assert (res.t_order is None) != t_rule

    def test_family_call(self):
        models = [Drude(wp) for wp in (1.0, 96.60661, 1e3)]
        f, nodes = _counted(integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), models, 0.5))
        res = integrate_semi_infinite(f, [1.0], envelope=quadrature.unit_envelope)
        assert res.evaluations == nodes[0] and res.t_order is None

    def test_call_whose_probe_deepens_in_stage_two(self):
        f, nodes = _counted(_spike_integrand(1e-2, narrow_at_small_u=True))
        assert integrate_semi_infinite(f, 1.0).evaluations == nodes[0]

    def test_deepened_probe_keeps_its_reference(self, monkeypatch):
        # stage 1 on 3 rows x 1,056 t nodes, stage 2 on 7 x 576 and, as it
        # deepens, 7 x 512 for the order-16 rule at every depth: the order-32
        # reference of the first stage-2 call is kept, not evaluated again
        f = _spike_integrand(1e-2, narrow_at_small_u=True)
        _, ((_, (_, _, _, probe_nodes)),) = _probe_calls(monkeypatch, integrate_semi_infinite, f, 1.0)
        assert probe_nodes == 3 * 1_056 + 7 * 576 + 7 * 512


class TestSetUpCaches:
    def test_cached_grids_are_read_only(self):
        cached = [*quadrature._seed_mesh(60.0, quadrature._SEED_SPLITS), *quadrature._probe_grid(16, 0)]
        cached += [*quadrature._probe_grid(16, 1), quadrature._tail_factor(60.0, (1.0, 0.5))]
        assert all(not array.flags.writeable for array in cached)

    def test_family_size_fills_the_kernel_budget(self):
        # 136 seed rows x the 32 Gauss-Legendre nodes of the Drude kernel fit 15 times in 4 x 16,384 nodes
        seed_rows = quadrature._seed_mesh(60.0, quadrature._SEED_SPLITS)[2].size
        assert (seed_rows, integrand._gauss_rule()[0].size) == (136, quadrature._DRUDE_KERNEL_NODES)
        assert quadrature.family_size() == quadrature._FAMILY_NODES // (136 * 32) == 15

    def test_split_heavy_batched_call_is_deterministic(self):
        scales, rows = np.array([50.0, 1.0]), []

        def g(u, t):
            rows.append(np.shape(u)[0])
            return None, np.cos(5.0 * u) ** 2 * np.ones_like(t), np.sin(3.0 * u) ** 2 * np.ones_like(t)

        envelope = lambda u: np.exp(-np.outer(scales, u))
        first = integrate_semi_infinite(g, scales, envelope=envelope)
        # after the t-integral check, the two probe stages and the seed: 19 splits in 3 rounds
        assert rows[4:] == [30 * 5, 30 * 7, 30 * 7]
        second = integrate_semi_infinite(g, scales, envelope=envelope)
        assert first.evaluations == second.evaluations
        assert first.value.tobytes() == second.value.tobytes()
        assert first.error_estimate.tobytes() == second.error_estimate.tobytes()

    def test_plain_call_is_unchanged_by_a_split_heavy_batched_call(self):
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(97.0), 0.5)
        first = integrate_semi_infinite(f, 1.0)
        scales = np.array([50.0, 1.0])
        g = lambda u, t: (None, np.cos(5.0 * u) ** 2 * np.ones_like(t))
        integrate_semi_infinite(g, scales, envelope=lambda u: np.exp(-np.outer(scales, u)))
        assert integrate_semi_infinite(f, 1.0) == first

    def test_batched_call_in_several_chunks(self, monkeypatch):
        self._chunked(monkeypatch, t_rule=True)

    def test_exact_t_batched_call_in_several_chunks(self, monkeypatch):
        self._chunked(monkeypatch, t_rule=False)

    @staticmethod
    def _chunked(monkeypatch, t_rule):
        # on the t rule f is called on chunks of whole panels, and each chunk's t
        # reduction is a matrix-vector product whose rounding depends on the rows
        # in it, as the probe's does: the values stay within err. Exact t integrals
        # take the seed mesh in one call, each panel's Kronrod sums are a product
        # of their own and the panels are summed in order, so the integral is
        # bit-identical whatever the node cap
        cases = [(Cavity(1.0), Drude(200.0), list(np.linspace(0.02, 0.98, 25)))]
        if not t_rule:
            cases.append((SingleInterface(), Drude(1.0), list(np.geomspace(1e-3, 5.0, 64))))
        for geometry, model, zs in cases:
            whole = _field_brackets(geometry, model, zs, t_rule=t_rule)
            for cap in (1_024,) if t_rule else (1_024, 64):
                f, calls = integrand_function(None, geometry, model), [0]
                f = _on_a_t_rule(f) if t_rule else f

                def counted(u, t):
                    calls[0] += 1
                    return f(u, t)

                with monkeypatch.context() as patch:
                    patch.setattr(quadrature, "_NODE_CAP", cap)
                    scales = [decay_scale_for(geometry, z) for z in zs]
                    chunked = integrate_semi_infinite(counted, scales, envelope=position_envelope(geometry, zs))
                assert calls[0] > 10 if t_rule else calls[0] == 1
                assert chunked.evaluations == whole.evaluations
                if t_rule:
                    assert np.all(np.abs(chunked.value - whole.value) <= whole.error_estimate)
                else:
                    assert chunked.value.tobytes() == whole.value.tobytes()
                    assert chunked.error_estimate.tobytes() == whole.error_estimate.tobytes()


_KRONROD = np.concatenate((quadrature._K15_WEIGHTS[:-1], quadrature._K15_WEIGHTS[::-1]))
_GAUSS = np.zeros(15)
_GAUSS[1::2] = np.concatenate((quadrature._G7_WEIGHTS[:-1], quadrature._G7_WEIGHTS[::-1]))


def _panel_loop(f, scales, envelope, cfg, t_rule):
    """Value, error estimate and magnitude sum of an integral that converges on its seed mesh, panel by panel and node by node.

    Each panel's Kronrod and Gauss sums take constant + e_j position_k at
    every node for every (field, position), in a plain loop: the reference
    for the engine's matrix product per panel. With ``t_rule`` f is reduced
    on the graded t rule its probe picks; otherwise f gives its exact t
    integrals. The tail bound and the t term are added as the engine does.
    """
    scales = np.asarray(scales, dtype=float)
    u_max = cfg.tail_exponent_budget / scales.min()
    levels = quadrature._SEED_SPLITS + max(0, math.ceil(math.log2(scales.max() / scales.min())))
    _, probe_u, nodes, half = quadrature._seed_mesh(u_max, levels)
    if t_rule:
        order, depth, rho, _ = quadrature._probe_t_rule(f, probe_u, cfg)
        t, w = quadrature._graded_t_rule(order, depth)
    else:
        rho = np.array([quadrature._T_INTEGRAL_ROUNDOFF])

    def reduced(u):
        """Constant, |constant|, positions and |positions| t integrals at the nodes u; zero for no constant."""
        out = f(u[:, None], t[None, :] if t_rule else quadrature.T_INTEGRAL)
        rows = []
        for bracket in list(out) if isinstance(out, tuple) else [None, out]:
            if bracket is None:
                rows.append((np.zeros(u.size), np.zeros(u.size)))
            elif t_rule:
                rows.append(((bracket * w).sum(axis=-1), (np.abs(bracket) * w).sum(axis=-1)))
            else:
                rows.append((bracket["integral"][:, 0], bracket["magnitude"][:, 0]))
        return (*rows[0], np.array([p for p, _ in rows[1:]]), np.array([p for _, p in rows[1:]]))

    value = gap = magnitude = 0.0
    for i in range(half.size):
        u = nodes[15 * i : 15 * (i + 1)]
        c, c_abs, p, p_abs = reduced(u)
        e = envelope(u)
        kronrod = gauss = mag = 0.0
        for node in range(15):
            g = c[node] + e[None, :, node] * p[:, None, node]
            kronrod = kronrod + _KRONROD[node] * g
            gauss = gauss + _GAUSS[node] * g
            mag = mag + _KRONROD[node] * (c_abs[node] + e[None, :, node] * p_abs[:, None, node])
        value, gap, magnitude = value + half[i] * kronrod, gap + half[i] * np.abs(kronrod - gauss), magnitude + half[i] * mag
    c, c_abs, p, p_abs = reduced(nodes[-1:])
    b = u_max * scales
    g_tail = c_abs[0] + envelope(nodes[-1:])[None, :, 0] * p_abs[:, None, 0]
    tail = 2.0 * g_tail * (1.0 + 3.0 / b + 6.0 / b**2 + 6.0 / b**3) / scales
    return value, gap + tail + rho[:, None] * magnitude, magnitude, nodes.size


def _midgap_family(wps):
    return integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(wp) for wp in wps], 0.5), [1.0], quadrature.unit_envelope


def _bracket_form(geometry, model, zs):
    scales = [decay_scale_for(geometry, z) for z in zs]
    return integrand_function(None, geometry, model), scales, position_envelope(geometry, zs)


class TestKronrodContraction:
    # one matrix product per panel against a loop over panels and nodes, on
    # integrals that converge on their seed mesh: the 15-member scan family at
    # rel_tol 1e-6, since at 1e-8 it splits panels the loop would not follow
    @pytest.mark.parametrize(
        "case, t_rule, rel_tol",
        [
            (lambda: _midgap_family(np.geomspace(10.0, 1000.0, 15)), False, 1e-6),
            (lambda: _midgap_family((50.0, 200.0)), False, 1e-8),
            (lambda: _bracket_form(Cavity(1.0), Drude(200.0), np.linspace(0.02, 0.98, 25)), False, 1e-8),
            (lambda: _bracket_form(SingleInterface(), Drude(1.0), np.geomspace(1e-3, 5.0, 64)), False, 1e-8),
            (lambda: (lambda u, t: u**3 * np.exp(-u) * (1.0 - t * t), [1.0], quadrature.unit_envelope), True, 1e-8),
            (lambda: _bracket_form(Cavity(1.0), Drude(200.0), np.linspace(0.02, 0.98, 25)), True, 1e-8),
        ],
        ids=("scan-family", "critical-ends", "cavity", "single-wall", "plain-t-rule", "cavity-t-rule"),
    )
    def test_matches_the_panel_loop(self, case, t_rule, rel_tol):
        f, scales, envelope = case()
        f = _on_a_t_rule(f) if t_rule else f
        cfg, rows = QuadratureConfig(rel_tol=rel_tol), []

        def recorded(u, t):
            rows.append(np.shape(u)[0])
            return f(u, t)

        res = integrate_semi_infinite(recorded, scales, cfg, envelope=envelope)
        value, err, magnitude, seed_rows = _panel_loop(f, scales, envelope, cfg, t_rule)
        # no panel split: the last call is the seed mesh's
        assert rows[-1] == seed_rows and rows.count(seed_rows) == 1 + t_rule
        assert res.value.shape == value.shape and value.shape[1] == len(scales)
        ulps = 4 * np.finfo(float).eps * magnitude
        assert np.all(np.abs(res.value - value) <= ulps)
        assert np.all(np.abs(res.error_estimate - err) <= ulps)


class TestFixedGridOracle:
    def test_matches_adaptive_on_mixed_cases(self):
        cases = [
            (Drude(1.0), SingleInterface(), 0.5),
            (Drude(200.0), Cavity(1.0), 0.25),
            (PerfectConductor(), Cavity(1.0), 0.4),
        ]
        for model, geometry, z in cases:
            ds = decay_scale_for(geometry, z)
            # one bracket-form oracle call gives <E^2> and <B^2>; U is their mean
            oracle = integrate_fixed_grid(integrand_function(None, geometry, model), ds, envelope=position_envelope(geometry, [z]))
            (e2,), (b2,) = oracle.value.tolist()
            reference = {FieldKind.E_SQUARED: e2, FieldKind.B_SQUARED: b2, FieldKind.ENERGY_DENSITY: 0.5 * (e2 + b2)}
            for kind in FieldKind:
                adaptive = integrate_semi_infinite(integrand_function(kind, geometry, model, z), ds)
                assert adaptive.value == pytest.approx(reference[kind], rel=1e-6, abs=1e-12)

    def test_oracle_error_gauge(self):
        f = integrand_function(FieldKind.ENERGY_DENSITY, SingleInterface(), Drude(1.0), 0.5)
        res = integrate_fixed_grid(f, 1.0)
        assert res.error_estimate >= 0.0
        assert res.evaluations > 0
        assert res.truncation_u == pytest.approx(60.0)
        # on the midgap Drude(200) integral the log-t rule, not the u grid,
        # limits the oracle; the gauge refines both axes, so it covers that
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(200.0), 0.5)
        oracle, engine = integrate_fixed_grid(f, 1.0), integrate_semi_infinite(f, 1.0)
        assert abs(oracle.value - engine.value) <= oracle.error_estimate + engine.error_estimate

    def test_bracket_form_matches_the_plain_calls(self):
        geometry, model, zs = Cavity(1.0), Drude(10.0), [0.25, 0.4]
        f = integrand_function(None, geometry, model)
        res = integrate_fixed_grid(f, 0.5, n_u=64, envelope=position_envelope(geometry, zs))
        assert res.value.shape == res.error_estimate.shape == (2, 2)
        for j, z in enumerate(zs):
            for k, kind in enumerate((FieldKind.E_SQUARED, FieldKind.B_SQUARED)):
                plain = integrate_fixed_grid(integrand_function(kind, geometry, model, z), 0.5, n_u=64)
                assert res.value[k, j] == pytest.approx(plain.value, rel=1e-12)
                assert res.evaluations == plain.evaluations

    def test_oracle_validation(self):
        f = lambda u, t: u * 0.0 + t * 0.0
        with pytest.raises(InvalidDecayScale):
            integrate_fixed_grid(f, 0.0)
        with pytest.raises(DomainError):
            integrate_fixed_grid(f, 1.0, n_u=8)
