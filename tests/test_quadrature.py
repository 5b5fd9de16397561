import functools
import math

import mpmath
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
from casimir_fields import analysis, quadrature
from casimir_fields.integrand import position_envelope
from conftest import first_rows


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-8 and cfg.abs_tol == 1e-14

    @pytest.mark.parametrize("kwargs", [{"tail_exponent_budget": 60.0}, {"max_subdivisions": 2000}])
    def test_budgets_are_not_settable(self, kwargs):
        # the truncation point and the u rule are the engine's constants
        with pytest.raises(TypeError):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-9},
            {"abs_tol": -1.0},
            # non-finite floats would "converge" with a meaningless err or refine to the cap on NaN
            {"rel_tol": math.inf},
            {"rel_tol": math.nan},
            {"abs_tol": math.inf},
            {"rel_tol": "1e-8"},
            {"rel_tol": True},
            {"abs_tol": math.nan},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": np.float32(1e-6), "abs_tol": 0},
            {"abs_tol": np.int64(0)},
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
        for below in (1e-9, 9.9e-7):
            with pytest.raises(DivergesAtBoundary, match=r"below the floor 1e-06"):
                integrate_semi_infinite(f, below)
        with pytest.raises(DivergesAtBoundary, match=r"decay scale 9\.9e-07 is below"):
            integrate_semi_infinite(f, [1.0, 9.9e-7], envelope=lambda u: np.ones((2, u.size)))
        assert integrate_semi_infinite(f, 1e-6).value == 0.0

    def test_nonconvergence_carries_best_result(self):
        calls = []

        def wiggly(u, t):
            calls.append((np.shape(u)[0], np.shape(t)[-1]))
            return np.cos(40.0 * u) ** 2 * np.exp(-u) * np.ones_like(t)

        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=0.0)
        with pytest.raises(NonConvergence, match="after 8 refinements of the u rule") as excinfo:
            integrate_semi_infinite(wiggly, 1.0, cfg)
        result = excinfo.value.result
        assert result is not None
        assert math.isfinite(result.value)
        assert result.error_estimate > 0.0
        # exact value: (1/2)(1 + 1/(1 + 6400))
        assert result.value == pytest.approx(0.5 * (1.0 + 1.0 / 6401.0), rel=1e-2)
        # the lifted callable runs on the fixed t rule from step 0.1: the first
        # call's 159 rows, which its check counts twice more, then 70 rows each
        # time the head drops (3 times) and 368, 736, ..., 5,888 on the midpoints
        # of 5 halvings
        lifted_rows = sum(rows for rows, width in calls if width == calls[-1][1])
        later = 3 * 70 + 368 * (2**5 - 1)
        assert lifted_rows == 159 + later and result.evaluations == 3 * 159 + later


class TestURule:
    @staticmethod
    def _integrate(integrand, scales, cfg, rows):
        """Integrate the exact t integrals integrand(u), appending the u rows of every integrand call to rows."""

        def f(u, t):
            rows.append(u[:, 0])
            row = integrand(u)
            return np.stack((row, np.abs(row)), axis=-1).view(quadrature.T_INTEGRAL_DTYPE)[..., 0]

        return integrate_semi_infinite(f, scales, cfg, envelope=lambda u: np.ones((len(scales), u.size)))

    @pytest.mark.parametrize("budget", [60.0, 30.0])
    @pytest.mark.parametrize("scales", [[1.0], [2.0, 0.25]], ids=("one-scale", "two-scales"))
    def test_first_call(self, monkeypatch, budget, scales):
        # rows at u_max e^{-0.2 k}, k = N .. 0 ascending, N even, the lowest at most 1e-5 / s_max
        monkeypatch.setattr(quadrature, "_TAIL_BUDGET", budget)
        rows = []
        self._integrate(lambda u: np.exp(-min(scales) * u), scales, QuadratureConfig(rel_tol=1.0, abs_tol=1.0), rows)
        (u,) = rows
        u_max, u_head = budget / min(scales), 1e-5 / max(scales)
        assert u[-1] == u_max and u.size % 2 == 1
        assert u[0] <= u_head < u[0] * math.exp(0.4)
        np.testing.assert_allclose(np.diff(np.log(u)), 0.2, rtol=1e-9)

    def test_head_drops_then_step_halves(self):
        # g(0) = 1: the head bound 2 u |g| at the lowest row fails 1e-13 relative
        # until the head has dropped three times by 1e3, 36 rows of step 0.2 each;
        # then the step halves, one call on the midpoints, until the cap of 8
        cfg, rows = QuadratureConfig(rel_tol=1e-13, abs_tol=0.0), []
        with pytest.raises(NonConvergence, match="after 8 refinements"):
            self._integrate(lambda u: np.cos(40.0 * u) ** 2 * np.exp(-u), [1.0], cfg, rows)
        assert [r.size for r in rows] == [81, 36, 36, 36, 188, 376, 752, 1504, 3008]
        grid = np.concatenate(rows[3::-1])  # the drops go below the rows before them
        np.testing.assert_allclose(np.diff(np.log(grid)), 0.2, rtol=1e-9)
        np.testing.assert_allclose(rows[4], np.sqrt(grid[:-1] * grid[1:]), rtol=1e-12)

    @pytest.mark.parametrize(
        "c, lifted, geometric", [(1e-4, False, True), (1e-2, False, False), (1e-4, True, False)], ids=("squared", "plain", "lifted")
    )
    def test_level_gap_term_on_the_first_call(self, c, lifted, geometric):
        # u^2 e^-u (1 + c (-1)^k) on the rows u_max e^{-h k}, h = 0.2 (0.1 for a
        # lifted callable): the odd rows, which only the step-h sum takes, move
        # the gap to about c times the magnitude sum M. At most 1e-3 M the rule
        # is in its geometric regime and the gap's term is gap^2 / M; above it,
        # and always for a lifted callable, which need not be analytic in u, the
        # gap itself
        h, u_max, rows = (0.1 if lifted else 0.2), quadrature._TAIL_BUDGET, []
        g = lambda u: u**2 * np.exp(-u) * (1.0 + c * np.cos(np.pi * np.log(u / u_max) / h))
        if lifted:
            res = integrate_semi_infinite(lambda u, t: g(u) * np.ones_like(t), 1.0, QuadratureConfig(rel_tol=0.5))
            steps = 2 * math.ceil(math.log(u_max / 1e-5) / (2 * h))
            u = u_max * np.exp(-h * np.arange(steps, -1, -1.0))
        else:
            res = self._integrate(g, [1.0], QuadratureConfig(rel_tol=0.5), rows)
            (u,) = rows
        weights = h * u
        weights[[0, -1]] *= 0.5
        fine, coarse, magnitude = weights @ g(u), 2.0 * weights[::2] @ g(u[::2]), weights @ np.abs(g(u))
        gap = abs(fine - coarse)
        assert bool(gap <= 1e-3 * magnitude) == (c < 1e-3) and gap == pytest.approx(c * magnitude, rel=0.1)
        head = 2.0 * u[0] * g(u[0])
        tail = 2.0 * g(u[-1]) * (1.0 + 3.0 / u_max + 6.0 / u_max**2 + 6.0 / u_max**3)
        roundoff = (quadrature._T_INTEGRAL_ROUNDOFF + quadrature._U_SUM_ROUNDOFF) * magnitude
        level = res.error_estimate - (head + tail + roundoff)
        assert level == pytest.approx(gap**2 / magnitude if geometric else gap, rel=1e-5)


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
        # the fast-decaying first position converges on the first call; the
        # second needs the step halved to resolve cos^2(5u) up to u ~ 60
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

    @pytest.mark.parametrize("lifted", [False, True], ids=("exact", "lifted"))
    def test_each_family_member_keeps_its_own_t_term(self, lifted):
        # exact or lifted, each member keeps its own roundoff allowance, 16 ulps
        # of its own magnitude; at the root the midgap member's tolerance is abs_tol
        wps = (1.0, 96.60661, 1e4)
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(wp) for wp in wps], 0.5)
        family = integrate_semi_infinite(_plain(f) if lifted else f, [1.0], envelope=quadrature.unit_envelope)
        alone = [_energy_density(Cavity(1.0), Drude(wp), [0.5], lifted=lifted) for wp in wps]
        assert QuadratureConfig().rel_tol * abs(alone[1].value) < QuadratureConfig().abs_tol
        assert family.value.shape == family.error_estimate.shape == (3, 1)
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
            # a 2-D array names the failing entry of its flattened scales
            (np.array([[1.0, math.nan]]), InvalidDecayScale, "nan"),
            (np.array([[1.0], [1e-9]]), DivergesAtBoundary, "1e-09"),
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

    def test_truncation_soundness(self, monkeypatch):
        f = integrand_function(FieldKind.ENERGY_DENSITY, SingleInterface(), Drude(2.0), 0.4)
        base = integrate_semi_infinite(f, 0.8)
        monkeypatch.setattr(quadrature, "_TAIL_BUDGET", 120.0)
        wide = integrate_semi_infinite(f, 0.8)
        assert wide.truncation_u == 2.0 * base.truncation_u
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
    def test_is_lifted_onto_the_fixed_t_rule(self):
        # the benchmark's set-up integral: a plain callable has no exact t
        # integrals, so the engine lifts it onto its fixed t rule; its integral
        # is 6 * 2/3, and it converges on the 159 u rows of the first call at
        # step 0.1, which the check on the halved t panels counts twice more
        res = integrate_semi_infinite(lambda u, t: u**3 * np.exp(-u) * (1.0 - t * t), 1.0)
        assert abs(res.value - 4.0) <= res.error_estimate
        assert res.evaluations == 3 * 159

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_kinked_callable_is_not_taken_as_converged(self, c):
        # |u - c| e^-u has a kink at u = c: there the rule converges like h^2, and
        # its error is about the gap, not gap^2 / M. The lifted callable keeps the
        # gap, so the step halves to the cap, and the err of the best estimate
        # still covers the true error, c - 1 + 2 e^-c
        f = lambda u, t: np.abs(u - c) * np.exp(-u) * np.ones_like(t)
        with pytest.raises(NonConvergence, match="after 8 refinements") as excinfo:
            integrate_semi_infinite(f, 1.0)
        result = excinfo.value.result
        assert abs(result.value - (c - 1.0 + 2.0 * math.exp(-c))) <= result.error_estimate


def _plain(f):
    """f without its exact t integrals: a copy of T_INTEGRAL is an empty t row like any other, so the engine lifts f onto its fixed t rule."""
    return lambda u, t: f(u, np.array(t) if t is quadrature.T_INTEGRAL else t)


def _field_brackets(geometry, model, zs, cfg=None, lifted=False):
    """e2 and b2 at every z from one batched engine call; on the lift's fixed t rule with ``lifted``."""
    f = integrand_function(None, geometry, model)
    scales = [decay_scale_for(geometry, z) for z in zs]
    return integrate_semi_infinite(_plain(f) if lifted else f, scales, cfg, envelope=position_envelope(geometry, zs))


def _energy_density(geometry, model, zs, cfg=None, lifted=False):
    """U at the one position in zs from a plain engine call; on the lift's fixed t rule with ``lifted``."""
    (z,) = zs
    f = integrand_function(FieldKind.ENERGY_DENSITY, geometry, model, z)
    return integrate_semi_infinite(_plain(f) if lifted else f, decay_scale_for(geometry, z), cfg)


class TestTRuleError:
    @pytest.mark.parametrize(
        "integrate, geometry, model, zs",
        [
            (_field_brackets, SingleInterface(), Drude(1.0), [1e-3]),
            (_field_brackets, SingleInterface(), Drude(1.0), [1.0]),
            # the profile where the u-panel part alone once fell short by 1.6x
            (_field_brackets, SingleInterface(), Drude(1.0), list(np.geomspace(1e-3, 5.0, 64))),
            (_field_brackets, Cavity(1.0), Drude(200.0), [0.02]),
            (_field_brackets, Cavity(1.0), Drude(200.0), [0.5]),
            (_field_brackets, Cavity(1.0), Drude(8.5), [0.5]),
            (_field_brackets, SingleInterface(), ConstantEpsilon(4.0), [0.5]),
            (_field_brackets, Cavity(1.0), PerfectConductor(), [0.3]),
            # a plain Drude cavity energy density C + e P changes sign in t at every u
            (_energy_density, Cavity(1.0), Drude(97.0), [0.5]),
            (_energy_density, Cavity(1.0), Drude(200.0), [0.5]),
        ],
        ids=(
            "drude1-1e-3", "drude1-1", "drude1-profile", "drude200-0.02", "drude200-0.5", "drude8.5", "eps4", "pc",
            "plain-u-drude97", "plain-u-drude200",
        ),
    )
    def test_lifted_grid_form_meets_the_exact_t_integrals(self, integrate, geometry, model, zs):
        # the closures' (u, t) grid form on the lift's fixed rule is an
        # independent, rule-based check of their exact t integrals
        lifted, exact = integrate(geometry, model, zs, lifted=True), integrate(geometry, model, zs)
        assert np.all(np.abs(lifted.value - exact.value) <= lifted.error_estimate + exact.error_estimate)

    @pytest.mark.parametrize("a", [9.0, 5.0 * math.pi, 40.0])
    def test_t_term_of_a_sign_changing_integrand(self, a):
        # cos(a t) - sin(a)/a integrates to zero in t at every u, so the value
        # is the fixed t rule's roundoff alone; the t term, 16 ulps of the
        # integral of |f| rather than of |integral of f dt|, covers it. The
        # rule takes the integral of |f|, kinked where f changes sign, within 3.2%
        c = math.sin(a) / a
        f = lambda u, t: np.exp(-u) * (np.cos(a * t) - c)
        res = integrate_semi_infinite(f, 1.0)
        magnitude = quad(lambda t: abs(math.cos(a * t) - c), 0.0, 1.0, limit=200)[0]
        assert res.error_estimate >= 0.9 * quadrature._T_INTEGRAL_ROUNDOFF * magnitude
        assert abs(res.value) <= res.error_estimate

    @pytest.mark.parametrize("width", [1e-2, 1e-3, 1e-4])
    def test_spike_the_lift_does_not_resolve(self, width):
        # e^-u / (1 + ((t - 0.5) / w)^2): the fixed rule is graded toward t = 0
        # only, and misses this spike by up to 0.025; its check on the halved t
        # panels sees the gap, which stops the integral at once, and at a
        # tolerance it cannot fail, bounds the error of the value
        f = lambda u, t: np.exp(-u) / (1.0 + ((t - 0.5) / width) ** 2)
        with pytest.raises(NonConvergence, match="the fixed t rule does not resolve f in t") as excinfo:
            integrate_semi_infinite(f, 1.0)
        assert excinfo.value.result.evaluations == 3 * 159
        res = integrate_semi_infinite(f, 1.0, QuadratureConfig(rel_tol=1.0, abs_tol=1.0))
        assert abs(res.value - 2.0 * width * math.atan(0.5 / width)) <= res.error_estimate

    def test_tail_above_tolerance_stops_at_once(self, monkeypatch):
        # the tail bound beyond u_max = 30 exceeds 1e-10 relative, and no finer step reduces it
        monkeypatch.setattr(quadrature, "_TAIL_BUDGET", 30.0)
        cfg = QuadratureConfig(rel_tol=1e-10)
        with pytest.raises(NonConvergence, match="tail bound .* exceed the tolerance .*, which no finer step reduces") as excinfo:
            _energy_density(SingleInterface(), Drude(1.0), [0.5], cfg)
        assert excinfo.value.result.evaluations == 77

    def test_tail_and_roundoff_together_above_tolerance_stop_at_once(self, monkeypatch):
        # t integrals 0 and magnitudes u^3 e^-u: no step gap, and at u_max = 43 a
        # tail bound of 3.6e-14, a t term of 2.1e-14 (16 ulps of 6) and a u-sum
        # roundoff of 5.3e-15 (4 ulps) that each fit abs_tol 5e-14 but together do not
        monkeypatch.setattr(quadrature, "_TAIL_BUDGET", 43.0)

        def f(u, t):
            return np.stack((np.zeros_like(u), u**3 * np.exp(-u)), axis=-1).view(quadrature.T_INTEGRAL_DTYPE)[..., 0]

        match = r"tail bound 3\.6\d\de-14, t term 2\.1\d\de-14 and u-sum roundoff 5\.3\d\de-15 exceed the tolerance 5\.000e-14.*loosen rel_tol or abs_tol"
        with pytest.raises(NonConvergence, match=match) as excinfo:
            integrate_semi_infinite(f, 1.0, QuadratureConfig(abs_tol=5e-14))
        assert excinfo.value.result.evaluations == 79

    def test_non_finite_integrand_stops_at_once(self):
        # NaN fails no tolerance test, so without a check it would read as converged
        rows = []

        def nan(u, t):
            rows.append((np.shape(u)[0], np.shape(t)[-1]))
            return np.full(np.broadcast_shapes(np.shape(u), np.shape(t)), math.nan)

        with pytest.raises(NonConvergence, match="not finite") as excinfo:
            integrate_semi_infinite(nan, 1.0)
        result = excinfo.value.result
        assert math.isnan(result.value) and math.isnan(result.error_estimate)
        # the t-integral call on the 81 rows of step 0.2, then the first call's
        # 159 rows of step 0.1 on the lift's rule and on its check's, and no more
        assert result.evaluations == 3 * 159
        assert rows[0] == (81, 0) and sum(n for n, m in rows[1:]) == 2 * 159

    def test_roundoff_allowance_above_tolerance_stops_at_once(self):
        # exact t integrals carry 16 ulps of the magnitude; a tolerance below that cannot be met
        cfg = QuadratureConfig(rel_tol=1e-16, abs_tol=0.0)
        with pytest.raises(NonConvergence, match="t term .* loosen rel_tol or abs_tol") as excinfo:
            _energy_density(Cavity(1.0), Drude(200.0), [0.5], cfg)
        assert excinfo.value.result.evaluations == 81


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
        # the spike narrows towards u = 0 rather than towards u_max
        res, reference = _spike(width, narrow_at_small_u=True)
        assert abs(res.value - reference) <= res.error_estimate



def test_err_bounds_b2_beside_a_weak_drude_mirror():
    # <B^2> at the midpoint of a Drude(1e-3) unit cavity, where the Kronrod
    # panels once returned a true error of 56 err: the truth is that engine at
    # rel_tol 1e-14, abs_tol 0 (commit 14d20a2), which a tanh-sinh t rule matched to 3.3e-15
    f = integrand_function(FieldKind.B_SQUARED, Cavity(1.0), Drude(1e-3), 0.5)
    res = integrate_semi_infinite(f, 1.0)
    assert abs(res.value - -4.219829627787286e-08) <= res.error_estimate


def test_roundoff_bound_tolerance_raises_on_the_first_call(engine_calls):
    # the midgap U at its root, asked for 1e-12 relative with abs_tol 1e-16: the
    # roundoff allowances alone exceed it, so the engine raises without refining
    with pytest.raises(NonConvergence, match="which no finer step reduces"):
        analysis._midgap_energy_family([96.60660691377], QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16))
    assert engine_calls.integrand == 1


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="the engine probes a plain callable with the empty T_INTEGRAL row, where t.max() has no identity; "
    "ROADMAP item 4, one integrand contract, takes that probe away",
)
def test_plain_callable_that_reduces_over_t():
    # t / t.max() depends on the lift's last t node, which its check moves by
    # 6e-4, so the engine should stop on that gap
    with pytest.raises(NonConvergence, match="the fixed t rule does not resolve f in t"):
        integrate_semi_infinite(lambda u, t: u**3 * np.exp(-u) * t / t.max(), 1.0)


class TestRootAdjacentIntegrals:
    # Midgap integrals beside the sign change of U, where abs_tol governs. They
    # take the exact t integrals and stop on the first call's 81 rows; their err,
    # about 2.2e-15, is mostly the squared gap of steps 0.2 and 0.4, with the
    # t and u-sum roundoff allowances, 20 ulps of the u integral of the
    # magnitude, and must meet the tolerance.
    @pytest.mark.parametrize("wp, err", [(96.60661, 2.1754e-15), (97.0, 2.1580e-15)], ids=("root", "beside-root"))
    def test_plain_integral(self, wp, err):
        res = _energy_density(Cavity(1.0), Drude(wp), [0.5])
        assert res.evaluations == 81
        assert res.error_estimate == pytest.approx(err, rel=1e-2)
        cfg = QuadratureConfig()
        assert res.error_estimate <= max(cfg.rel_tol * abs(res.value), cfg.abs_tol)

    def test_two_calls_at_a_tighter_abs_tol(self):
        # at abs_tol 1e-15, where the Kronrod panels took two refinement rounds,
        # the root's first err, 2.2e-15, fails it; one halving of the step, a
        # call on the 80 midpoints, meets it
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(96.60661), 0.5)
        rows = []

        def counted(u, t):
            rows.append(np.shape(u)[0])
            return f(u, t)

        cfg = QuadratureConfig(abs_tol=1e-15)
        res = integrate_semi_infinite(counted, 1.0, cfg)
        assert res.evaluations == sum(rows) == 161 and rows == [81, 80]
        assert res.error_estimate <= cfg.abs_tol

    def test_family(self):
        wps = (95.0, 96.0, 96.60661, 97.0, 98.0)
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(wp) for wp in wps], 0.5)
        res = integrate_semi_infinite(f, [1.0], envelope=quadrature.unit_envelope)
        assert res.evaluations == 81
        expected = [2.2488e-15, 2.2027e-15, 2.1754e-15, 2.1580e-15, 2.1147e-15]
        np.testing.assert_allclose(res.error_estimate[:, 0], expected, rtol=1e-2)
        assert np.all(res.error_estimate <= QuadratureConfig().abs_tol)


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


class TestEvaluationCount:
    # every integral counts u rows: one per exact t integral, or per row of a
    # lifted callable, which is evaluated at the fixed rule's 544 t nodes
    _T_NODES = quadrature._T_RULE[1].size

    def test_plain_call(self):
        f, nodes = _counted(integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(97.0), 0.5))
        res = integrate_semi_infinite(f, 1.0)
        assert res.evaluations == nodes[0]

    @pytest.mark.parametrize(
        "f",
        [
            _plain(integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(97.0), 0.5)),
            _spike_integrand(1e-2, narrow_at_small_u=True),
        ],
        ids=("drude-grid-form", "spike"),
    )
    def test_lifted_call(self, f):
        f, nodes = _counted(f)
        res = integrate_semi_infinite(f, 1.0)
        assert self._T_NODES == 544 and res.evaluations * self._T_NODES == nodes[0]

    def test_batched_call(self):
        geometry, zs = SingleInterface(), [1e-3, 0.1, 2.0]
        for model in (Drude(1.0), ConstantEpsilon(4.0)):
            for lifted in (False, True):
                f, nodes = _counted(integrand_function(None, geometry, model))
                scales = [decay_scale_for(geometry, z) for z in zs]
                res = integrate_semi_infinite(_plain(f) if lifted else f, scales, envelope=position_envelope(geometry, zs))
                assert res.evaluations * (self._T_NODES if lifted else 1) == nodes[0]

    def test_family_call(self):
        models = [Drude(wp) for wp in (1.0, 96.60661, 1e3)]
        f, nodes = _counted(integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), models, 0.5))
        res = integrate_semi_infinite(f, [1.0], envelope=quadrature.unit_envelope)
        assert res.evaluations == nodes[0]


class TestSetUpCaches:
    def test_cached_grids_are_read_only(self):
        cached = [*quadrature._T_RULE, *quadrature._T_CHECK_RULE]
        assert all(not array.flags.writeable for array in cached)

    def test_refining_batched_call_is_deterministic(self):
        scales, rows = np.array([50.0, 1.0]), []

        def g(u, t):
            rows.append(np.shape(u)[0])
            return None, np.cos(5.0 * u) ** 2 * np.ones_like(t), np.sin(3.0 * u) ** 2 * np.ones_like(t)

        envelope = lambda u: np.exp(-np.outer(scales, u))
        first = integrate_semi_infinite(g, scales, envelope=envelope)
        # after the t-integral call on the 99 rows of step 0.2, the lifted
        # callable takes the first call's 197 rows of step 0.1 on the fixed rule
        # and again on the check's, then 70 rows each time the head drops (twice)
        # and the midpoints of three halvings, in blocks of whole rows within the
        # node cap
        assert rows[0] == 99 and sum(rows[1:]) == 2 * 197 + 2 * 70 + 336 * (1 + 2 + 4)
        second = integrate_semi_infinite(g, scales, envelope=envelope)
        assert first.evaluations == second.evaluations
        assert first.value.tobytes() == second.value.tobytes()
        assert first.error_estimate.tobytes() == second.error_estimate.tobytes()

    def test_plain_call_is_unchanged_by_a_refining_batched_call(self):
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(97.0), 0.5)
        first = integrate_semi_infinite(f, 1.0)
        scales = np.array([50.0, 1.0])
        g = lambda u, t: (None, np.cos(5.0 * u) ** 2 * np.ones_like(t))
        integrate_semi_infinite(g, scales, envelope=lambda u: np.exp(-np.outer(scales, u)))
        assert integrate_semi_infinite(f, 1.0) == first

    @pytest.mark.parametrize("lifted", [False, True], ids=("exact", "lifted"))
    def test_integral_does_not_depend_on_the_node_cap(self, monkeypatch, lifted):
        # a lifted callable is called on blocks of whole u rows, and each row's t
        # integral is a sum along the row (`quadrature._t_rows`), so the integral
        # is bit-identical whatever the node cap. Exact t integrals take the
        # first call's rows in one call
        cases = [_bracket_form(Cavity(1.0), Drude(200.0), np.linspace(0.02, 0.98, 25))]
        if lifted:
            cases.append((_spike_integrand(1e-2), 1.0, None))
        else:
            cases.append(_bracket_form(SingleInterface(), Drude(1.0), np.geomspace(1e-3, 5.0, 64)))
        for f, scales, envelope in cases:
            f, calls, results = _plain(f) if lifted else f, [], []
            for cap in (16_384, 1_024, 64):

                def counted(u, t):
                    calls[-1] += 1
                    return f(u, t)

                calls.append(0)
                with monkeypatch.context() as patch:
                    patch.setattr(quadrature, "_NODE_CAP", cap)
                    results.append(integrate_semi_infinite(counted, scales, envelope=envelope))
            assert calls[0] < calls[1] <= calls[2] if lifted else calls == [1, 1, 1]
            whole = results[0]
            for chunked in results[1:]:
                assert chunked.evaluations == whole.evaluations
                assert np.asarray(chunked.value).tobytes() == np.asarray(whole.value).tobytes()
                assert np.asarray(chunked.error_estimate).tobytes() == np.asarray(whole.error_estimate).tobytes()


def _trapezoid_loop(f, scales, envelope, lifted):
    """Value, error estimate, magnitude sum and rows of an integral that stops on its first call, node by node.

    The rows lie at u_max e^{-h k}, k = N .. 0, with N even and the lowest
    row at most 1e-5 / s_max. The trapezoid sums at steps h and 2h take
    constant + e_j position_k at every node for every (field, position), in a
    plain loop: the reference for the engine's one matrix product. With
    ``lifted`` f is reduced on the lift's fixed t rule, h is 0.1 and the
    level-gap term is the gap; otherwise f gives its exact t integrals, h is
    0.2 and the term is gap^2 / M where the gap is at most 1e-3 of the
    magnitude sum M, else the gap. The head bound 2 u |g|, the tail bound and
    the roundoff allowances are added as the engine does.
    """
    scales = np.asarray(scales, dtype=float)
    u_max = quadrature._TAIL_BUDGET / scales.min()
    h = 0.1 if lifted else 0.2
    steps = 2 * math.ceil(math.log(u_max * scales.max() / 1e-5) / (2 * h))
    nodes = u_max * np.exp(-h * np.arange(steps, -1, -1.0))
    t, w = quadrature._T_RULE
    out = f(nodes[:, None], t if lifted else quadrature.T_INTEGRAL)
    rows = []
    for bracket in list(out) if isinstance(out, tuple) else [None, out]:
        if bracket is None:
            rows.append((np.zeros(nodes.size), np.zeros(nodes.size)))
        elif lifted:
            rows.append(((bracket * w).sum(axis=-1), (np.abs(bracket) * w).sum(axis=-1)))
        else:
            rows.append((bracket["integral"][:, 0], bracket["magnitude"][:, 0]))
    (c, c_abs), positions = rows[0], rows[1:]
    p, p_abs = np.array([row for row, _ in positions]), np.array([row for _, row in positions])
    e = envelope(nodes)
    g_abs = lambda k: c_abs[k] + e[None, :, k] * p_abs[:, None, k]
    fine = coarse = magnitude = 0.0
    for k in range(nodes.size):
        weight = h * nodes[k] * (0.5 if k in (0, steps) else 1.0)
        g = c[k] + e[None, :, k] * p[:, None, k]
        fine, magnitude = fine + weight * g, magnitude + weight * g_abs(k)
        if k % 2 == 0:
            coarse = coarse + 2.0 * weight * g
    b = u_max * scales
    tail = 2.0 * g_abs(-1) * (1.0 + 3.0 / b + 6.0 / b**2 + 6.0 / b**3) / scales
    roundoff = (quadrature._T_INTEGRAL_ROUNDOFF + quadrature._U_SUM_ROUNDOFF) * magnitude
    gap = np.abs(fine - coarse)
    level = np.where((gap <= 1e-3 * magnitude) & (not lifted), gap**2 / magnitude, gap)
    return fine, level + 2.0 * nodes[0] * g_abs(0) + tail + roundoff, magnitude, nodes.size


def _midgap_family(wps):
    return integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(wp) for wp in wps], 0.5), [1.0], quadrature.unit_envelope


def _bracket_form(geometry, model, zs):
    scales = [decay_scale_for(geometry, z) for z in zs]
    return integrand_function(None, geometry, model), scales, position_envelope(geometry, zs)


class TestTrapezoidContraction:
    # one matrix product for both steps against a loop over nodes, on integrals
    # that stop on their first call
    @pytest.mark.parametrize(
        "case, lifted",
        [
            (lambda: _midgap_family(np.geomspace(10.0, 1000.0, 20)), False),
            (lambda: _midgap_family((50.0, 200.0)), False),
            (lambda: _bracket_form(Cavity(1.0), Drude(200.0), np.linspace(0.02, 0.98, 25)), False),
            (lambda: _bracket_form(SingleInterface(), Drude(1.0), np.geomspace(1e-3, 5.0, 64)), False),
            (lambda: (lambda u, t: u**3 * np.exp(-u) * (1.0 - t * t), [1.0], quadrature.unit_envelope), True),
            (lambda: _bracket_form(Cavity(1.0), Drude(200.0), np.linspace(0.02, 0.98, 25)), True),
        ],
        ids=("scan-family", "critical-ends", "cavity", "single-wall", "plain-lifted", "cavity-lifted"),
    )
    def test_matches_the_node_loop(self, case, lifted):
        f, scales, envelope = case()
        f, rows = _plain(f) if lifted else f, []

        def recorded(u, t):
            rows.append(np.shape(u)[0])
            return f(u, t)

        res = integrate_semi_infinite(recorded, scales, envelope=envelope)
        value, err, magnitude, first_rows = _trapezoid_loop(f, scales, envelope, lifted)
        # no refinement: the T_INTEGRAL call and, lifted, the rows of step 0.1 in
        # blocks on the fixed rule and on the check's, whose gap stays within the
        # roundoff allowance
        assert (sum(rows[1:]) == 2 * first_rows) if lifted else (rows == [first_rows])
        assert res.value.shape == value.shape and value.shape[1] == len(scales)
        ulps = 4 * np.finfo(float).eps * magnitude
        assert np.all(np.abs(res.value - value) <= ulps)
        # the step gap is the difference of two such sums
        assert np.all(np.abs(res.error_estimate - err) <= 2 * ulps)


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
        assert integrate_fixed_grid(f, 1.0, n_u=np.int64(16)).value == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_u": 8},
            # unchecked, a float count fails with a TypeError inside numpy's linspace
            {"n_u": 20.0},
            {"n_u": True},
        ],
    )
    def test_oracle_inputs_are_checked(self, kwargs):
        def never(u, t):
            raise AssertionError("evaluated")

        with pytest.raises(DomainError):
            integrate_fixed_grid(never, 1.0, **kwargs)

    def test_the_u_range_is_fixed_over_the_decay_scale(self):
        # [1e-8, 60] / decay_scale: the first and last log-u nodes, and the reported truncation point
        seen = []

        def recording(u, t):
            seen.append(u.ravel())
            return u * t

        res = integrate_fixed_grid(recording, 4.0, n_u=16)
        first = seen[0]  # the coarse pass, in one call
        assert first[0] == pytest.approx(0.25e-8, rel=1e-14) and first[-1] == pytest.approx(15.0, rel=1e-14)
        assert res.truncation_u == 15.0

    def test_a_float32_decay_scale_runs_in_float64(self):
        # in float32 the u range read 99.99999 and moved the value in its last bit
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), PerfectConductor(), 0.3)
        narrow = integrate_fixed_grid(f, np.float32(0.6), n_u=64)
        wide = integrate_fixed_grid(f, float(np.float32(0.6)), n_u=64)
        assert narrow == wide and type(narrow.truncation_u) is float


def _spike_t_integral(width, narrow_at_small_u, u):
    """e^-u s arctan(1 / s) in mpmath, the t integral of `_spike_integrand` at u."""
    s = mpmath.mpf(width) * u if narrow_at_small_u else mpmath.mpf(width) / u
    return mpmath.exp(-u) * s * mpmath.atan(1 / s)


def _cosine_t_integral(a, u):
    """e^-u (sin(a)/a - c) in mpmath, the t integral of e^-u (cos(a t) - c) at u for the float c = sin(a)/a."""
    return mpmath.exp(-u) * (mpmath.sin(a) / a - math.sin(a) / a)


class TestLiftedRule:
    # the lift's fixed rule against closed-form t integrals: within the 16-ulp
    # roundoff allowance of the magnitude that every t integral carries
    _U = np.geomspace(1e-4, 60.0, 61)

    @pytest.mark.parametrize(
        "f, exact",
        [
            (_spike_integrand(w, narrow), functools.partial(_spike_t_integral, w, narrow))
            for narrow in (False, True)
            for w in (1.0, 1e-2, 1e-3)
        ]
        + [
            (lambda u, t, a=a: np.exp(-u) * (np.cos(a * t) - math.sin(a) / a), functools.partial(_cosine_t_integral, a))
            for a in (9.0, 5.0 * math.pi, 40.0)
        ],
        ids=[f"spike-{w:g}{'-narrow-at-small-u' if narrow else ''}" for narrow in (False, True) for w in (1.0, 1e-2, 1e-3)]
        + ["cos-9", "cos-5pi", "cos-40"],
    )
    def test_within_the_roundoff_allowance(self, f, exact):
        rows = quadrature._lifted(f)(self._U[:, None], quadrature.T_INTEGRAL)
        assert rows.dtype == quadrature.T_INTEGRAL_DTYPE and rows.shape == (self._U.size, 1)
        with mpmath.workdps(30):
            errors = [float(abs(row["integral"] - exact(u))) for u, (row,) in zip(self._U, rows)]
        assert np.all(np.array(errors) <= quadrature._T_INTEGRAL_ROUNDOFF * rows["magnitude"][:, 0])


    @pytest.mark.parametrize("model", (PerfectConductor(), ConstantEpsilon(4.0), Drude(200.0)), ids=("pc", "eps4", "drude200"))
    def test_cavity_bracket_forms_meet_the_roundoff_allowance(self, model):
        # every bracket of a cavity's bracket form, at the first call's rows of a
        # 25-point profile, on the lift's rule against its check's: the constant
        # bracket takes u^3 into e^{-2ua} before it rounds in the subnormal range,
        # past u a = 354, where weighting it afterwards once left gaps of 3e4 ulps
        geometry = Cavity(1.0)
        f = integrand_function(None, geometry, model)
        u = first_rows([decay_scale_for(geometry, z) for z in np.linspace(0.02, 0.98, 25)])
        rows = quadrature._lifted(f)(u[:, None], quadrature.T_INTEGRAL)
        assert quadrature._lift_gap(f, u, rows) <= quadrature._T_INTEGRAL_ROUNDOFF
