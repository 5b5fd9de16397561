import math

import numpy as np
import pytest

from casimir_fields import (
    Cavity,
    ConstantEpsilon,
    DomainError,
    Drude,
    FieldKind,
    PerfectConductor,
    Vacuum,
    compute_point,
    integrand_function,
)
from casimir_fields.dielectric import reflection_values


class TestModelValidation:
    def test_drude_requires_positive_wp(self):
        with pytest.raises(DomainError):
            Drude(0.0)
        with pytest.raises(DomainError):
            Drude(-1.0)
        with pytest.raises(DomainError):
            Drude(math.inf)

    def test_constant_epsilon_requires_greater_than_one(self):
        with pytest.raises(DomainError):
            ConstantEpsilon(1.0)
        with pytest.raises(DomainError):
            ConstantEpsilon(0.5)
        with pytest.raises(DomainError):
            ConstantEpsilon(math.nan)

    @pytest.mark.parametrize(
        "make, field, value",
        [
            (Drude, "plasma_frequency", np.float32(200.3)),
            (ConstantEpsilon, "epsilon", np.float32(3.7)),
            (Drude, "plasma_frequency", np.int64(4_000_000_000)),
            (Cavity, "width", np.float32(1.1)),
        ],
        ids=("drude-float32", "eps-float32", "drude-int64", "cavity-float32"),
    )
    def test_numpy_parameters_are_stored_as_floats(self, make, field, value):
        # a numpy real is taken as the float it equals, so no float32 or int64
        # arithmetic reaches the integrands: int64 wp * wp would overflow
        stored = make(value)
        assert type(getattr(stored, field)) is float and stored == make(float(value))

    @pytest.mark.parametrize(
        "numpy_model, model",
        [
            (Drude(np.float32(200.3)), Drude(float(np.float32(200.3)))),
            (ConstantEpsilon(np.float32(3.7)), ConstantEpsilon(float(np.float32(3.7)))),
            (Drude(np.int64(4_000_000_000)), Drude(4e9)),
        ],
        ids=("drude-float32", "eps-float32", "drude-int64"),
    )
    def test_numpy_parameters_give_the_floats_values(self, numpy_model, model):
        u, t = np.geomspace(1e-3, 1e3, 7)[:, None], np.linspace(0.0, 1.0, 5)[None, :]
        for a, b in zip(reflection_values(numpy_model, u, t), reflection_values(model, u, t)):
            assert a.tobytes() == b.tobytes()
        grid = [integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), m, 0.3)(u, t) for m in (numpy_model, model)]
        assert grid[0].tobytes() == grid[1].tobytes()
        assert compute_point(Cavity(1.0), numpy_model, 0.3) == compute_point(Cavity(1.0), model, 0.3)

    @pytest.mark.parametrize(
        "make, value",
        [(Drude, np.float32(-1.0)), (ConstantEpsilon, np.float32(0.5)), (Cavity, np.int64(0))],
    )
    def test_errors_name_the_callers_value(self, make, value):
        with pytest.raises(DomainError) as excinfo:
            make(value)
        assert str(excinfo.value).endswith(f"got {value!r}")


def node(model, u, t):
    """(r, r_prime) of `reflection_values` at one node, as floats."""
    r, r_prime = reflection_values(model, u, t)
    return float(r), float(r_prime)


class TestNodeValues:
    @pytest.mark.parametrize(
        "model, u, eps",
        [(Drude(1.0), 1.0, 2.0), (Drude(2.0), 1.0, 5.0), (Drude(2.0), 4.0, 1.25), (ConstantEpsilon(3.5), 0.7, 3.5)],
    )
    def test_normal_incidence_follows_the_permittivity(self, model, u, eps):
        # at t = 1 the Euclidean frequency is u, eps(i u) = 1 + (wp/u)^2 for Drude, and
        # r = (1 - sqrt(eps))/(1 + sqrt(eps)), r' = (eps - sqrt(eps))/(eps + sqrt(eps))
        root = math.sqrt(eps)
        r, rp = node(model, u, 1.0)
        assert r == pytest.approx((1.0 - root) / (1.0 + root), rel=1e-14)
        assert rp == pytest.approx((eps - root) / (eps + root), rel=1e-14)

    def test_drude_example_u1_t1(self):
        r, rp = node(Drude(1.0), 1.0, 1.0)
        expected_r = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
        expected_rp = (2.0 - math.sqrt(2.0)) / (2.0 + math.sqrt(2.0))
        assert r == pytest.approx(expected_r, rel=1e-14)
        assert rp == pytest.approx(expected_rp, rel=1e-14)
        assert r == pytest.approx(-0.171573, abs=1e-6)
        assert rp == pytest.approx(0.171573, abs=1e-6)

    def test_drude_u0_limit(self):
        for t in (0.0, 0.3, 1.0):
            assert node(Drude(2.5), 0.0, t) == (-1.0, 1.0)

    def test_drude_grazing_incidence(self):
        # t = 0 gives r_prime = 1 exactly, at every u
        for u in (0.01, 1.0, 1e4):
            assert node(Drude(0.7), u, 0.0)[1] == 1.0

    def test_perfect_conductor_everywhere(self):
        for u, t in ((0.0, 0.0), (3.0, 0.5), (1e6, 1.0)):
            assert node(PerfectConductor(), u, t) == (-1.0, 1.0)

    def test_vacuum_everywhere(self):
        assert node(Vacuum(), 2.0, 0.3) == (0.0, 0.0)

    def test_constant_epsilon_values(self):
        eps = 4.0
        # normal incidence (t = 1): r = (1-sqrt(eps))/(1+sqrt(eps))
        r, rp = node(ConstantEpsilon(eps), 3.0, 1.0)
        assert r == pytest.approx((1 - 2.0) / (1 + 2.0), rel=1e-14)
        assert rp == pytest.approx((4.0 - 2.0) / (4.0 + 2.0), rel=1e-14)
        # t = 0: kappa_1 = kappa_0, so r vanishes
        r, rp = node(ConstantEpsilon(eps), 3.0, 0.0)
        assert r == 0.0
        assert rp == pytest.approx((eps - 1) / (eps + 1), rel=1e-14)

    def test_constant_epsilon_independent_of_u(self):
        model = ConstantEpsilon(2.3)
        t = np.linspace(0.0, 1.0, 11)
        r1, rp1 = reflection_values(model, np.full_like(t, 0.5), t)
        r2, rp2 = reflection_values(model, np.full_like(t, 50.0), t)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(rp1, rp2)


class TestDrudeProperties:
    def test_r_independent_of_t(self):
        u = np.geomspace(1e-3, 1e3, 25)[:, None]
        t = np.linspace(0.0, 1.0, 17)[None, :]
        r, _ = reflection_values(Drude(3.0), u, t)
        assert np.max(np.abs(r - r[:, :1])) == 0.0

    def test_large_u_falloff(self):
        # r(u) ~ -wp^2 / (4 u^2) for u >> wp
        wp = 2.0
        u = 100.0 * wp
        r, _ = reflection_values(Drude(wp), np.array(u), np.array(0.5))
        assert abs(float(r) * 4.0 * u * u / wp**2 + 1.0) < 0.01

    def test_monotonicity_in_u(self):
        wp = 1.7
        u = np.geomspace(1e-4, 1e3, 60)
        for t in (0.2, 0.7, 1.0):
            r, rp = reflection_values(Drude(wp), u, np.full_like(u, t))
            assert np.all(np.diff(r) > 0)  # rises from -1 toward 0
            assert np.all(np.diff(rp) < 0)  # falls from 1 toward 0
            assert rp[0] == pytest.approx(1.0, abs=1e-3)

    def test_sign_bounds_random_grid(self, rng):
        u = np.geomspace(1e-4, 1e4, 100)[:, None]
        t = np.linspace(0.0, 1.0, 100)[None, :]
        for wp in 10.0 ** rng.uniform(-1, 2, size=8):
            r, rp = reflection_values(Drude(wp), u, t)
            assert np.all(r <= 0.0) and np.all(r >= -1.0)
            assert np.all(rp >= 0.0) and np.all(rp <= 1.0)

    def test_broadcast_shapes(self):
        r, rp = reflection_values(Drude(1.0), np.ones((4, 1)), np.linspace(0, 1, 5)[None, :])
        assert r.shape == (4, 5) and rp.shape == (4, 5)


@pytest.mark.parametrize("model", [Drude(1.0), ConstantEpsilon(4.0), PerfectConductor(), Vacuum()], ids=repr)
def test_values_are_read_only_views(model):
    r, rp = reflection_values(model, np.ones((4, 1)), np.linspace(0, 1, 5)[None, :])
    assert not r.flags.writeable and not rp.flags.writeable


def test_drude_r_is_stored_once_per_u():
    r, rp = reflection_values(Drude(1.0), np.linspace(1.0, 2.0, 4)[:, None], np.linspace(0, 1, 5)[None, :])
    assert r.strides[1] == 0 and rp.strides[1] != 0
