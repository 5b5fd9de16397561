import functools
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre

from casimir_fields import (
    CAVITY_PREFACTOR,
    SINGLE_PREFACTOR,
    Cavity,
    ConstantEpsilon,
    DomainError,
    Drude,
    FieldKind,
    PerfectConductor,
    SingleInterface,
    Vacuum,
    decay_scale_for,
    integrand_function,
)
from casimir_fields import integrand, quadrature
from casimir_fields.dielectric import reflection_values
from casimir_fields.integrand import cavity_terms, position_envelope, single_bracket
from conftest import first_rows

KINDS = (FieldKind.E_SQUARED, FieldKind.B_SQUARED, FieldKind.ENERGY_DENSITY)
MODELS = (Drude(3.0), ConstantEpsilon(4.0), PerfectConductor(), Vacuum())
GEOMETRIES = (SingleInterface(), Cavity(1.0))


def _random_nodes(rng, n=50):
    """n nodes (u, t), u log-uniform in [1e-2, 1e2] and t uniform in [0, 1], as two 1-D arrays."""
    nodes = [(10.0 ** rng.uniform(-2, 2), rng.uniform(0, 1)) for _ in range(n)]
    return np.array([u for u, _ in nodes]), np.array([t for _, t in nodes])


class TestSingleIntegrand:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_vacuum_vanishes(self, geometry):
        u, t = np.geomspace(1e-2, 1e2, 9)[:, None], np.linspace(0.0, 1.0, 5)[None, :]
        for kind in KINDS:
            assert np.all(integrand_function(kind, geometry, Vacuum(), 0.3)(u, t) == 0.0)

    def test_perfect_conductor_energy_vanishes(self):
        # bracket (1 - t^2)(r + r') is zero when r = -1 and r' = +1
        f = integrand_function(FieldKind.ENERGY_DENSITY, SingleInterface(), PerfectConductor(), 0.8)
        for u, t in ((0.5, 0.0), (2.0, 0.7), (10.0, 1.0)):
            assert f(u, t) == 0.0

    def test_drude_example_chained_value(self):
        # independent scalar evaluation of the same node
        r = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
        rp = (2.0 - math.sqrt(2.0)) / (2.0 + math.sqrt(2.0))
        expected = (1.0 / (4.0 * math.pi**2)) * math.exp(-2.0) * (-r + rp)
        value = integrand_function(FieldKind.E_SQUARED, SingleInterface(), Drude(1.0), 1.0)(1.0, 1.0)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx((1.0 / (4.0 * math.pi**2)) * math.exp(-2.0) * 0.343146, rel=1e-5)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(DomainError):
            integrand_function(FieldKind.E_SQUARED, SingleInterface(), Drude(1.0), 0.0)
        with pytest.raises(DomainError):
            integrand_function(FieldKind.E_SQUARED, SingleInterface(), Drude(1.0), -2.0)

    def test_energy_is_mean_of_squared_fields(self, rng):
        u, t = _random_nodes(rng)
        e2, b2, energy = (_parent_field(kind, SingleInterface(), Drude(3.0), 0.7, u, t) for kind in KINDS)
        np.testing.assert_allclose(energy, 0.5 * (e2 + b2), rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_grazing_limit(self, model):
        # at t = 0 the brackets are 2r', 2r and r + r', and r' = 1 for a Drude mirror; the
        # reference's r + r' cancels at small u (r -> -1), hence 1e-12 rather than 1e-14
        u, z = np.geomspace(1e-2, 1e2, 9), 0.4
        r, rp = reflection_values(model, u, 0.0)
        weight = SINGLE_PREFACTOR * u**3 * np.exp(-2.0 * u * z)
        for kind, bracket in zip(KINDS, (2.0 * rp, 2.0 * r, r + rp)):
            value = integrand_function(kind, SingleInterface(), model, z)(u, 0.0)
            np.testing.assert_allclose(value, weight * bracket, rtol=1e-12, atol=1e-300)
        if isinstance(model, Drude):
            assert np.all(rp == 1.0)


class TestCavityTerms:
    def test_vacuum_terms_vanish(self):
        const, pos = cavity_terms(FieldKind.ENERGY_DENSITY, *reflection_values(Vacuum(), 2.0, 0.5), 2.0, 0.5, 1.0, 0.3)
        assert const == 0.0 and pos == 0.0

    def test_pc_energy_position_term_vanishes(self):
        r, rp = reflection_values(PerfectConductor(), 2.0, 0.5)
        const, pos = cavity_terms(FieldKind.ENERGY_DENSITY, r, rp, 2.0, 0.5, 1.0, 0.3)
        assert pos == 0.0
        assert const < 0.0

    def test_pc_energy_exact_node_value(self):
        # a = 1, z = 0.5, u = 1, t = 0.5: constant term is 2 t^2 / (1 - e^2)
        r, rp = reflection_values(PerfectConductor(), 1.0, 0.5)
        const, _ = cavity_terms(FieldKind.ENERGY_DENSITY, r, rp, 1.0, 0.5, 1.0, 0.5)
        expected_const = 2.0 * 0.25 / (1.0 - math.exp(2.0))
        assert const == pytest.approx(expected_const, rel=1e-13)
        value = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), PerfectConductor(), 0.5)(1.0, 0.5)
        assert value == pytest.approx(CAVITY_PREFACTOR * expected_const, rel=1e-13)
        assert value < 0.0

    def test_midgap_minimizes_position_term(self):
        u, t = 2.0, 0.4
        r, rp = reflection_values(Drude(5.0), u, t)
        _, mid = cavity_terms(FieldKind.ENERGY_DENSITY, r, rp, u, t, 1.0, 0.5)
        for z in (0.1, 0.3, 0.42, 0.9):
            _, off = cavity_terms(FieldKind.ENERGY_DENSITY, r, rp, u, t, 1.0, z)
            assert off >= mid

    def test_position_rejected_outside_gap(self):
        for z in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(1.0), z)

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_u_zero_limit_is_zero(self, geometry):
        # the u^3 prefactor beats the cavity brackets' 1/u growth: the integrand falls at least as u^2
        for model in (*MODELS, Drude(1.0)):
            for kind in KINDS:
                f = integrand_function(kind, geometry, model, 0.3)
                for t in (0.2, 0.9):
                    assert abs(f(1e-7, t)) <= 1e-3 * abs(f(1e-5, t))

    def test_sign_decomposition_drude_and_pc(self, rng):
        u = 10.0 ** rng.uniform(-3, 3, size=(200, 1))
        t = rng.uniform(0.0, 1.0, size=(1, 50))
        for model in (Drude(200.0), Drude(0.3), PerfectConductor()):
            r, rp = reflection_values(model, u, t)
            const, pos = cavity_terms(FieldKind.ENERGY_DENSITY, r, rp, u, t, 1.0, 0.37)
            assert np.all(const <= 0.0)
            assert np.all(pos >= 0.0)


class TestCavityIntegrand:
    def test_symmetry_under_reflection(self):
        u, t = np.array([0.5, 3.0, 20.0])[:, None], np.array([0.3, 0.9, 0.05])[None, :]
        for z in (0.1, 0.25, 0.4):
            left = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(7.0), z)(u, t)
            right = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(7.0), 1.0 - z)(u, t)
            np.testing.assert_allclose(left, right, rtol=1e-13, atol=0.0)

    def test_energy_is_mean_of_squared_fields(self, rng):
        u, t = _random_nodes(rng)
        e2, b2, energy = (_parent_field(kind, Cavity(1.0), Drude(12.0), 0.3, u, t) for kind in KINDS)
        np.testing.assert_allclose(energy, 0.5 * (e2 + b2), rtol=1e-12, atol=1e-300)

    def test_swap_of_reflections_exchanges_e2_and_b2(self, rng):
        u = 10.0 ** rng.uniform(-2, 2, size=(40, 1))
        t = rng.uniform(0.0, 1.0, size=(1, 20))
        r, rp = reflection_values(Drude(4.0), u, t)
        np.testing.assert_array_equal(
            single_bracket(FieldKind.E_SQUARED, rp, r, t),
            single_bracket(FieldKind.B_SQUARED, r, rp, t),
        )
        const_e, pos_e = cavity_terms(FieldKind.E_SQUARED, rp, r, u, t, 1.0, 0.3)
        const_b, pos_b = cavity_terms(FieldKind.B_SQUARED, r, rp, u, t, 1.0, 0.3)
        np.testing.assert_array_equal(const_e, const_b)
        np.testing.assert_array_equal(pos_e, pos_b)

    def test_reduces_to_single_interface_at_large_u(self):
        # near one wall, large u: the second wall's images are exponentially gone
        model, z, u = Drude(200.0), 0.01, np.array([500.0, 2000.0])
        cavity = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), model, z)(u, 0.4)
        single = integrand_function(FieldKind.ENERGY_DENSITY, SingleInterface(), model, z)(u, 0.4)
        np.testing.assert_allclose(cavity, single, rtol=1e-12, atol=0.0)

    def test_decay_bound_justifies_truncation(self):
        # |integrand| <= C u^3 exp(-2 u min(z, a-z)) with C stable beyond wp
        z, a, t = 0.3, 1.0, 0.4
        scale = 2.0 * min(z, a - z)
        u = np.geomspace(5.0, 100.0, 40)
        vals = np.abs(integrand_function(FieldKind.ENERGY_DENSITY, Cavity(a), Drude(5.0), z)(u, t))
        ratios = vals / (u**3 * np.exp(-u * scale))
        assert np.all(ratios <= 2.0 * ratios[0])
        assert ratios[-1] <= ratios[0]

    def test_decay_scale_helper(self):
        assert decay_scale_for(SingleInterface(), 0.7) == pytest.approx(1.4)
        assert decay_scale_for(Cavity(1.0), 0.2) == pytest.approx(0.4)
        assert decay_scale_for(Cavity(1.0), 0.8) == pytest.approx(0.4)
        with pytest.raises(DomainError):
            decay_scale_for(SingleInterface(), 0.0)
        with pytest.raises(DomainError):
            decay_scale_for(Cavity(1.0), 1.0)

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_float_array_positions_are_taken_as_they_are(self, geometry):
        zs = np.linspace(0.1, 0.9, 9)
        z, scales = integrand._checked_positions(geometry, zs)
        assert z is zs
        np.testing.assert_array_equal(scales, [decay_scale_for(geometry, v) for v in zs.tolist()])
        # float32 is widened, and equals the element-by-element path on its numpy scalars
        z32, scales32 = integrand._checked_positions(geometry, zs.astype(np.float32))
        assert z32.dtype == np.float64
        for got, by_element in zip((z32, scales32), integrand._checked_positions(geometry, list(zs.astype(np.float32)))):
            np.testing.assert_array_equal(got, by_element, strict=True)

    @pytest.mark.parametrize(
        "geometry, zs, named",
        [
            (SingleInterface(), np.array([0.5, math.nan, 0.2]), "nan"),
            (SingleInterface(), np.array([0.5, -1.0, math.inf], dtype=np.float32), "-1.0"),
            (SingleInterface(), np.array([0.5, math.inf]), "inf"),
            (SingleInterface(), np.array([True, False]), "True"),
            (Cavity(1.0), np.array([0.5, 1.0, math.nan]), "1.0"),
            (Cavity(1.0), np.array([0.5, math.nan, 1.0]), "nan"),
            (Cavity(1.0), np.array([0.25, 0.0]), "0.0"),
        ],
    )
    def test_array_positions_fail_as_their_elements_do(self, geometry, zs, named):
        # an array names its first bad position as the list of its numpy scalars does
        with pytest.raises(DomainError, match=named) as from_array:
            integrand._checked_positions(geometry, zs)
        with pytest.raises(DomainError) as from_elements:
            integrand._checked_positions(geometry, list(zs))
        assert str(from_array.value) == str(from_elements.value)

    @pytest.mark.parametrize("z", [True, np.bool_(True), math.nan, np.float64(math.nan), "0.5", None])
    def test_scalar_positions_that_are_not_real_numbers_are_refused(self, z):
        with pytest.raises(DomainError, match="vacuum region"):
            integrand._checked_positions(SingleInterface(), [0.5, z])

    @pytest.mark.parametrize("z", [np.float32(0.5), np.float64(0.5), np.int64(1), 1, 0.5])
    def test_numpy_and_python_real_positions(self, z):
        got, scales = integrand._checked_positions(SingleInterface(), [z])
        assert got.dtype == np.float64 and got[0] == float(z) and scales[0] == 2.0 * float(z)

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            Cavity(0.0)
        with pytest.raises(DomainError):
            Cavity(-1.0)

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_integrand_function_matches_scalar_ops(self, geometry, model):
        # the reference is the bracket arithmetic on reflection_values; a scalar
        # (u, t) evaluates one node and gives a float equal to the grid's entry
        u = np.array([[0.7], [3.0]])
        t = np.array([[0.2, 0.9]])
        for kind in KINDS:
            f = integrand_function(kind, geometry, model, 0.6)
            grid = f(u, t)
            for i in range(2):
                for j in range(2):
                    expected = _parent_field(kind, geometry, model, 0.6, u[i, 0], t[0, j])
                    assert grid[i, j] == pytest.approx(expected, rel=1e-14)
                    value = f(float(u[i, 0]), float(t[0, j]))
                    assert isinstance(value, float) and value == grid[i, j]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_energy_bracket_is_mean_of_field_brackets(model):
    # the identity behind U = (e2 + b2)/2: it holds node by node, to roundoff
    u = np.geomspace(1e-3, 1e3, 40)[:, None]
    t = np.linspace(0.0, 1.0, 33)[None, :]
    r, rp = reflection_values(model, u, t)
    single = [single_bracket(kind, r, rp, t) for kind in KINDS]
    cavity = [cavity_terms(kind, r, rp, u, t, 1.0, 0.3) for kind in KINDS]
    position = [pos for _, pos in cavity]
    for e2, b2, energy in (single, position):
        scale = np.maximum(np.abs(e2), np.abs(b2))
        assert np.all(np.abs(energy - 0.5 * (e2 + b2)) <= 1e-15 * scale)
    for const, _ in cavity[1:]:
        np.testing.assert_array_equal(const, cavity[0][0])


@pytest.mark.parametrize("geometry", (SingleInterface(), Cavity(1.0)), ids=("single", "cavity"))
def test_bracket_form_reassembles_field_integrands(geometry):
    model, zs = Drude(2.0), np.array([0.1, 0.35, 0.8])
    u = np.geomspace(0.05, 40.0, 12)
    t = np.linspace(0.01, 0.99, 7)[None, :]
    constant, e2_position, b2_position = integrand_function(None, geometry, model)(u[:, None], t)
    envelope = position_envelope(geometry, zs)(u)
    for j, z in enumerate(zs):
        for kind, position in ((FieldKind.E_SQUARED, e2_position), (FieldKind.B_SQUARED, b2_position)):
            assembled = envelope[j][:, None] * position
            if constant is not None:
                assembled = assembled + constant
            expected = integrand_function(kind, geometry, model, z)(u[:, None], t)
            np.testing.assert_allclose(assembled, expected, rtol=1e-13, atol=1e-300)



def _plain_undispersed(model, t):
    """1 - r^2, 1 - r'^2 and r + r' as the closures of a model without dispersion form them: for eps from q = sqrt(1 + (eps - 1) t^2)."""
    if isinstance(model, ConstantEpsilon):
        eps = model.epsilon
        tt = t * t
        q = np.sqrt(1.0 + (eps - 1.0) * tt)
        total = (2.0 * ((eps - 1.0) / (eps + q))) * ((1.0 - tt) / (1.0 + q))
        return (4.0 * q / (1.0 + q)) / (1.0 + q), (4.0 * (eps / (eps + q))) * (q / (eps + q)), total
    return {PerfectConductor: (0.0, 0.0, 0.0), Vacuum: (1.0, 1.0, 0.0)}[type(model)]


def _plain_brackets(geometry, r, rp, u, t, undispersed=None, weight=1.0):
    """Constant bracket times ``weight`` (None for one wall), each kind's bracket and the reflected pair (r/D, r'/D'), one plain expression each.

    In a cavity 1 - r^2 and 1 - r'^2 are (1 - r)(1 + r) and (1 - r')(1 + r'),
    and the energy density's bracket is (1 - t^2)(r/D + r'/D'); with the
    triple of `_plain_undispersed` as ``undispersed`` they are its squares,
    and the bracket is (1 - t^2)(r + r')(1 - r r' e^{-2ua})/(D D') from its sum.
    The weight multiplies e^{-2ua} before it enters the constant bracket.
    """
    tt = t * t
    constant = None
    square_r, square_rp, total = undispersed or ((1.0 - r) * (1.0 + r), (1.0 - rp) * (1.0 + rp), None)
    if isinstance(geometry, Cavity):
        a = geometry.width
        em, damp = -np.expm1(-2.0 * u * a), np.exp(-2.0 * u * a)
        dr = square_r + r * r * em
        drp = square_rp + rp * rp * em
        constant = -tt * (r * r * (weight * damp) / dr + rp * rp * (weight * damp) / drp)
        if total is not None:
            total = total * (1.0 - r * rp * damp) / (dr * drp)
        r, rp = r / dr, rp / drp
    energy = (1.0 - tt) * (r + rp if total is None else total)
    e2, b2 = -tt * r + (2.0 - tt) * rp, (2.0 - tt) * r - tt * rp
    return constant, dict(zip(KINDS, (e2, b2, energy))), (r, rp)


def _plain_fields(geometry, r, rp, u, t, z, undispersed=None):
    """Each kind's integrand at z from `_plain_brackets`, and two scales of its nodes per kind.

    The scales are u^3 (|C| + e (|r/D| + |r'/D'|)) and u^3 (|C| + e |P|),
    where |P| is the kind's own bracket with every term taken positive: the
    size of the parts whose cancellation roundoff is measured against, the
    second also where (1 - t^2) makes a bracket vanish.
    """
    cavity = isinstance(geometry, Cavity)
    w = (CAVITY_PREFACTOR if cavity else SINGLE_PREFACTOR) * u**3
    constant, brackets, (gr, grp) = _plain_brackets(geometry, r, rp, u, t, undispersed, w)
    tt, gr, grp = t * t, np.abs(gr), np.abs(grp)
    parts = {
        FieldKind.E_SQUARED: tt * gr + (2.0 - tt) * grp,
        FieldKind.B_SQUARED: (2.0 - tt) * gr + tt * grp,
        FieldKind.ENERGY_DENSITY: (1.0 - tt) * (gr + grp),
    }
    if not cavity:
        envelope = np.exp(-2.0 * u * z)
        fields = {kind: w * b * envelope for kind, b in brackets.items()}
        return fields, {kind: (w * envelope * (gr + grp), w * envelope * parts[kind]) for kind in KINDS}
    envelope = 0.5 * (np.exp(-2.0 * u * (geometry.width - z)) + np.exp(-2.0 * u * z))
    fields = {kind: constant + w * b * envelope for kind, b in brackets.items()}
    scales = {kind: tuple(np.abs(constant) + w * envelope * p for p in (gr + grp, parts[kind])) for kind in KINDS}
    return fields, scales


def _drude_reflections_longdouble(wp, u, t):
    """The Drude (r, r') of `reflection_values` in np.longdouble, from the textbook ratios."""
    wp, u, t = np.longdouble(wp), np.asarray(u, dtype=np.longdouble), np.asarray(t, dtype=np.longdouble)
    s = u + np.sqrt(u * u + wp * wp)
    tt = t * t
    return -(wp * wp) / (s * s), wp * wp * (1 - (u / s) * tt) / (wp * wp + tt * u * s)


def _parent_field(kind, geometry, model, z, u, t):
    """A field integrand by the bracket arithmetic every non-Drude closure uses, on `reflection_values`.

    Single interface: SINGLE_PREFACTOR u^3 single_bracket(r, r') e^{-2uz}; cavity:
    CAVITY_PREFACTOR u^3 times the sum of the two `cavity_terms`.
    """
    r, rp = reflection_values(model, u, t)
    if isinstance(geometry, Cavity):
        constant, position = cavity_terms(kind, r, rp, u, t, geometry.width, z)
        return CAVITY_PREFACTOR * u**3 * (constant + position)
    return SINGLE_PREFACTOR * u**3 * single_bracket(kind, r, rp, t) * np.exp(-2.0 * u * z)


def _longdouble_fields(geometry, wp, z, u, t):
    """`_plain_fields` of Drude(wp) in np.longdouble, and its scales in float64 with inf where they are below 1e-280.

    float64 underflows on both sides where a scale is that small, so those
    nodes are left out.
    """
    u_ld, t_ld = np.asarray(u, dtype=np.longdouble), np.asarray(t, dtype=np.longdouble)
    exact, scales = _plain_fields(geometry, *_drude_reflections_longdouble(wp, u, t), u_ld, t_ld, z)
    counted = {kind: [np.where(scale > 1e-280, scale, np.inf).astype(float) for scale in pair] for kind, pair in scales.items()}
    assert all((scale < np.inf).any() for pair in counted.values() for scale in pair)
    return exact, counted


def _scaled_errors(reference, values):
    """Per kind of ``values`` and per scale of the reference of `_longdouble_fields`, the largest |f - f_ld| / scale of each array f listed for the kind."""
    exact, scales = reference
    errors = []
    for kind, arrays in values.items():
        deviations = [np.abs(got - exact[kind]).astype(float) for got in arrays]
        errors.extend([float(np.max(deviation / scale)) for deviation in deviations] for scale in scales[kind])
    return errors


def _node_errors(geometry, model, z, u, t, reference=None):
    """`_scaled_errors` of the closure and of the bracket arithmetic, per kind and scale."""
    reference = reference or _longdouble_fields(geometry, model.plasma_frequency, z, u, t)
    values = {kind: [integrand_function(kind, geometry, model, z)(u, t), _parent_field(kind, geometry, model, z, u, t)] for kind in KINDS}
    return _scaled_errors(reference, values)


def _assembled(geometry, z, u, brackets):
    """E^2 and B^2 at z from the brackets (constant, e2_position, b2_position) at u."""
    constant, *positions = brackets
    envelope = position_envelope(geometry, [z])(np.ravel(u))[0].reshape(np.shape(u))
    return {kind: envelope * p if constant is None else constant + envelope * p for kind, p in zip(KINDS, positions)}


def _bracket_form_errors(geometry, model, z, u, t, reference=None):
    """`_scaled_errors` of the field closure and of the bracket form assembled at z, per field (E^2, B^2) and scale."""
    reference = reference or _longdouble_fields(geometry, model.plasma_frequency, z, u, t)
    assembled = _assembled(geometry, z, u, integrand_function(None, geometry, model)(u, t))
    values = {kind: [integrand_function(kind, geometry, model, z)(u, t), form] for kind, form in assembled.items()}
    return _scaled_errors(reference, values)


def _map_values(kind, geometry, wp, z, u, t):
    """The Drude integrands of the Bernstein maps at the nodes (u (n, 1), t (1, m)), (rows, n, m); the bracket form's as its tuple.

    Each numerator is the coefficients of `integrand._drude_parts` times
    `integrand._bernstein_basis`. The denominator is built from the factors
    returned with them, (alpha_1 + gamma_1 x)(alpha_2 + gamma_2 x) in a
    cavity and 1 + c x outside one mirror, x = t^2, in the same basis: the
    factors' product from their values at x = 0 and 1, raised to a cubic.
    """
    numerators, factors = integrand._drude_parts(kind, geometry, [wp], z)[0](np.ravel(u))
    if isinstance(geometry, SingleInterface):
        (c,) = factors
        lines = [(np.ones_like(c), 1.0 + c), (1.0, 1.0)]
    else:
        alpha1, gamma1, alpha2, gamma2, _ = factors
        lines = [(alpha1, alpha1 + gamma1), (alpha2, alpha2 + gamma2)]
    (p0, p1), (q0, q1) = lines
    quadratic = np.stack([p0 * q0, 0.5 * (p0 * q1 + p1 * q0), p1 * q1])
    basis = integrand._bernstein_basis(np.ravel(t))
    denominator = ((integrand._X + integrand._Y) @ quadratic).T @ basis
    values = numerators.transpose(0, 2, 1) @ basis / denominator
    if kind is not None:
        return values
    return (None, *values) if isinstance(geometry, SingleInterface) else tuple(values)


def _engine_grid(geometry, z):
    """(u, t) of the engine's first integrand call at z, on the fixed t rule of its lift."""
    return first_rows([decay_scale_for(geometry, z)])[:, None], quadrature._T_RULE[0]


_ORACLE_GRID = (np.geomspace(1e-8, 600.0, 240)[:, None], np.geomspace(1e-16, 1.0, 160)[None, :])


_NEEDS_LONGDOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended-precision long double")


@pytest.fixture(
    scope="module",
    params=[(Cavity(1.0), 0.02), (Cavity(1.0), 0.35), (Cavity(1.0), 0.5), (SingleInterface(), 1e-3), (SingleInterface(), 0.3)],
    ids=("cavity-0.02", "cavity-0.35", "cavity-0.5", "single-1e-3", "single-0.3"),
)
def drude_nodes(request):
    """A geometry, a position and, for each plasma frequency on the engine's and on the oracle's grids, (wp, u, t, reference of `_longdouble_fields`).

    Module-scoped and parametrized, so the accuracy tests of one position
    share its references, and one position's are held at a time.
    """
    geometry, z = request.param
    grids = (_engine_grid(geometry, z), _ORACLE_GRID)
    return geometry, z, [(wp, u, t, _longdouble_fields(geometry, wp, z, u, t)) for wp in (0.3, 2.0, 96.60661, 200.0, 1e4) for u, t in grids]


@_NEEDS_LONGDOUBLE
def test_drude_closures_are_as_accurate_as_the_bracket_arithmetic(drude_nodes):
    # the Drude field closures take the bracket arithmetic on reflection factors
    # formed without cancellation; against the plain expressions in extended
    # precision, their worst node error, relative to the size of the parts that
    # cancel, is at most twice that of the textbook bracket arithmetic on the
    # engine's grids and on the oracle's ranges
    geometry, z, nodes = drude_nodes
    for wp, u, t, reference in nodes:
        for closure, bracket_arithmetic in _node_errors(geometry, Drude(wp), z, u, t, reference):
            assert closure <= 2.0 * bracket_arithmetic, (wp, u.shape, t.shape)


@_NEEDS_LONGDOUBLE
def test_drude_bracket_form_is_as_accurate_as_the_field_closures(drude_nodes):
    # the bracket form runs on the same arithmetic as the field closures:
    # assembled at z, E^2 and B^2 meet twice the closures' worst node error,
    # also at u down to 1e-8 on the oracle's grid, where 1 + r taken by
    # subtraction used to lose 3.1e-8 of the scale
    geometry, z, nodes = drude_nodes
    for wp, u, t, reference in nodes:
        for closure, bracket_form in _bracket_form_errors(geometry, Drude(wp), z, u, t, reference):
            assert bracket_form <= max(2.0 * closure, 4 * np.finfo(float).eps), (wp, u.shape, t.shape)
            assert bracket_form < 1e-10


@_NEEDS_LONGDOUBLE
def test_drude_maps_are_as_accurate_as_the_bracket_arithmetic(drude_nodes):
    # the Bernstein coefficient maps, whose exact t integrals the engine sums,
    # evaluated at the nodes: each field within twice the textbook bracket
    # arithmetic's worst node error, and the bracket form assembled at z within
    # twice the field's, the bounds of the two tests above
    geometry, z, nodes = drude_nodes
    for wp, u, t, reference in nodes:
        assembled = _assembled(geometry, z, u, _map_values(None, geometry, wp, None, u, t))
        values = {
            kind: [_map_values(kind, geometry, wp, z, u, t)[0], _parent_field(kind, geometry, Drude(wp), z, u, t)]
            + ([assembled[kind]] if kind in assembled else [])
            for kind in KINDS
        }
        for by_map, bracket_arithmetic, *bracket_form in _scaled_errors(reference, values):
            assert by_map <= 2.0 * bracket_arithmetic, (wp, u.shape, t.shape)
            for error in bracket_form:
                assert error <= max(2.0 * by_map, 4 * np.finfo(float).eps) and error < 1e-10, (wp, u.shape, t.shape)


@pytest.mark.parametrize("geometry", (SingleInterface(), Cavity(1.0)), ids=("single", "cavity"))
@pytest.mark.parametrize(
    "u, t",
    [
        (np.geomspace(1e-3, 1e3, 23)[:, None], np.linspace(0.01, 0.99, 17)[None, :]),
        (np.geomspace(1e-3, 1e3, 5), 0.3),
        (2.5, np.linspace(0.0, 1.0, 5)),
        (0.7, 0.3),
    ],
    ids=("grid", "u-axis", "t-axis", "node"),
)
def test_closures_match_plain_expressions_bit_for_bit(geometry, u, t):
    # the closures write products over their own temporaries; that must not change
    # a bit. The Drude closures, whose reflection factors the plain expressions do
    # not form, meet the extended-precision bounds of the tests above on these
    # shapes; on a few nodes the bracket arithmetic can land within an ulp by
    # chance, so the bound there is at least 4 float64 ulps of the scale
    z = 0.3
    eps = np.finfo(float).eps
    for model in (*MODELS, Drude(97.0)):
        if isinstance(model, Drude):
            for closure, bracket_form in _bracket_form_errors(geometry, model, z, u, t):
                assert bracket_form <= max(2.0 * closure, 4 * eps)
            for kind in KINDS:
                expected_shape = np.broadcast_shapes(np.shape(u), np.shape(t))
                assert np.shape(integrand_function(kind, geometry, model, z)(u, t)) == expected_shape
            for closure, bracket_arithmetic in _node_errors(geometry, model, z, u, t):
                assert closure <= max(2.0 * bracket_arithmetic, 4 * eps)
            continue
        undispersed = _plain_undispersed(model, np.asarray(t, dtype=float))
        w = (CAVITY_PREFACTOR if isinstance(geometry, Cavity) else SINGLE_PREFACTOR) * u**3
        constant, brackets, _ = _plain_brackets(geometry, *reflection_values(model, u, t), u, t, undispersed, w)
        form = (constant, w * brackets[FieldKind.E_SQUARED], w * brackets[FieldKind.B_SQUARED])
        for got, expected in zip(integrand_function(None, geometry, model)(u, t), form, strict=True):
            if expected is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, expected, strict=True)
        plain, _ = _plain_fields(geometry, *reflection_values(model, u, t), u, t, z, undispersed)
        for kind, expected in plain.items():
            np.testing.assert_array_equal(integrand_function(kind, geometry, model, z)(u, t), expected, strict=True)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_closures_take_u_and_t_that_broadcast(geometry, model):
    # every closure evaluates at the broadcast nodes: u and t of one shape give
    # the diagonal of their grid, and a third axis the same values
    u, t = np.geomspace(0.1, 10.0, 4), np.linspace(0.1, 0.9, 4)
    closures = [integrand_function(kind, geometry, model, 0.5) for kind in KINDS] + [integrand_function(None, geometry, model)]
    for f in closures:
        for node, grid in zip(*(_bracket_tuple(f(*nodes)) for nodes in ((u, t), (u[:, None], t[None, :])))):
            np.testing.assert_array_equal(node, np.diagonal(grid), strict=True)
        for deep, grid in zip(*(_bracket_tuple(f(*nodes)) for nodes in ((u[:, None, None], t[None, None, :]), (u[:, None], t[None, :])))):
            np.testing.assert_array_equal(deep[:, 0], grid, strict=True)


def _bracket_tuple(out):
    """Every bracket of one closure call, without a None constant."""
    return [bracket for bracket in (out if isinstance(out, tuple) else (out,)) if bracket is not None]


@pytest.mark.parametrize("geometry, z", [(SingleInterface(), 0.3), (Cavity(1.0), 0.5)], ids=("single", "cavity"))
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_family_matches_its_members(geometry, z, kind):
    # a family of Drude integrands is the members' integrands, one per bracket, on one
    # grid: the same operations on the same values, so the same bits
    u, t = np.geomspace(1e-3, 1e3, 23)[:, None], np.linspace(0.01, 0.99, 17)[None, :]
    wps = (0.3, 96.60661, 1e4)
    out = integrand_function(kind, geometry, [Drude(wp) for wp in wps], z)(u, t)
    assert isinstance(out, tuple) and out[0] is None and len(out) == len(wps) + 1
    for got, wp in zip(out[1:], wps):
        np.testing.assert_array_equal(got, integrand_function(kind, geometry, Drude(wp), z)(u, t), strict=True)


@pytest.mark.parametrize(
    "kind, models",
    [
        (FieldKind.ENERGY_DENSITY, []),
        (FieldKind.ENERGY_DENSITY, [Drude(1.0), ConstantEpsilon(4.0)]),
        (FieldKind.ENERGY_DENSITY, (PerfectConductor(),)),
        (None, [Drude(1.0), Drude(2.0)]),
    ],
    ids=("empty", "mixed", "pc", "bracket-form"),
)
def test_family_takes_drude_models_only(kind, models):
    with pytest.raises(DomainError):
        integrand_function(kind, Cavity(1.0), models, None if kind is None else 0.5)


def test_bracket_form_takes_no_position():
    with pytest.raises(DomainError, match="z=None"):
        integrand_function(None, Cavity(1.0), PerfectConductor(), 0.5)


def _bernstein_from_moments(m):
    """Integrals of the cubic Bernstein basis in x from those of 1, x, x^2 and x^3, exactly."""
    m0, m1, m2, m3 = m
    return [m0 - 3 * m1 + 3 * m2 - m3, 3 * m1 - 6 * m2 + 3 * m3, 3 * m2 - 3 * m3, m3]


def _single_moments(c):
    """int_0^1 t^{2k} / (1 + c t^2) dt for k = 0..3, by the upward recurrence, at the working precision."""
    root = mpmath.sqrt(c)
    moments = [mpmath.atan(root) / root]
    for k in (1, 2, 3):
        moments.append((mpmath.mpf(1) / (2 * k - 1) - moments[-1]) / c)
    return moments


def _reference_kernel(geometry, factors):
    """The t integrals of the Bernstein basis over the denominator of the float64 factors, at 160 digits: (4, n) of mpf.

    The denominator is 1 + c x, or (alpha_1 + gamma_1 x)(alpha_2 + gamma_2 x)
    split into partial fractions, or a double pole where the factors are
    equal. 160 digits outlast every cancellation of these forms on the rows
    tested, down to c = 1e-24.
    """
    columns = []
    with mpmath.workdps(160):
        for row in zip(*factors):
            if isinstance(geometry, SingleInterface):
                columns.append(_bernstein_from_moments(_single_moments(mpmath.mpf(row[0]))))
                continue
            a1, g1, a2, g2 = (mpmath.mpf(v) for v in row[:4])
            spread = a2 * g1 - a1 * g2
            if spread == 0:  # int t^{2k} / (1 + c t^2)^2 dt = (J_{k-1} - L_{k-1})/c, L_0 = 1/(2(1 + c)) + J_0/2
                c = g1 / a1
                j = _single_moments(c)
                moments = [1 / (2 * (1 + c)) + j[0] / 2]
                for k in (1, 2, 3):
                    moments.append((j[k - 1] - moments[-1]) / c)
                columns.append([v / a1**2 for v in _bernstein_from_moments(moments)])
                continue
            near = _bernstein_from_moments(_single_moments(g1 / a1))
            far = _bernstein_from_moments(_single_moments(g2 / a2))
            columns.append([(g1 / a1 * x - g2 / a2 * y) / spread for x, y in zip(near, far)])
    return np.array(columns, dtype=object).T


# u rows over [1e-8, 1e4]; at u a > 745 e^{-ua} underflows and the two poles of a cavity coincide
_EXACT_U = np.geomspace(1e-8, 1e4, 97)
_EXACT_WPS = (0.3, 1.0, 96.60661, 200.0, 1e4)


class TestExactTIntegrals:
    """The Drude closures' rows at t = T_INTEGRAL against mpmath on the same float64 coefficients."""

    @pytest.fixture(scope="class")
    def references(self):
        """Per geometry and plasma frequency, the factors of the denominator and the reference kernel."""
        out = {}
        for geometry in GEOMETRIES:
            for wp in (*_EXACT_WPS, 0.01):
                coefficients, _ = integrand._drude_parts(None, geometry, [wp], None)
                factors = coefficients(_EXACT_U)[1]
                out[type(geometry).__name__, wp] = factors, _reference_kernel(geometry, factors)
        return out

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_kernel(self, geometry, references):
        # every basis integral within 8 ulps of itself, the cavity's in each of its
        # three forms: the Gauss rule, the split into two poles apart (reached
        # below wp a = 0.04) and the closed form of merging poles
        kernel = integrand._single_kernel if isinstance(geometry, SingleInterface) else integrand._cavity_kernel
        for wp in (*_EXACT_WPS, 0.01):
            factors, reference = references[type(geometry).__name__, wp]
            got = kernel(*factors)
            error = np.array([[float(abs(mpmath.mpf(g) - r) / r) for g, r in zip(*pair)] for pair in zip(got, reference)])
            assert error.max() <= 8 * np.finfo(float).eps, wp

    def test_cavity_rows_cover_every_form(self, references):
        p1, d, near_pole = [], [], []
        for wp in (*_EXACT_WPS, 0.01):
            alpha1, gamma1, alpha2, gamma2, spread = references["Cavity", wp][0]
            p1.append(alpha1 / gamma1)
            d.append(spread / (gamma1 * gamma2))
        p1, d = np.concatenate(p1), np.concatenate(d)
        assert (p1 < 1).any() and (p1 > 1).any()
        near = p1 < integrand._GAUSS_POLE
        assert (~near).any() and (near & (d > 0.5)).any() and (near & (d <= 0.5)).any()
        assert (d == 0).any()  # e^{-ua} underflowed

    @pytest.mark.parametrize(
        "geometry, zs",
        [(Cavity(1.0), (0.02, 0.35, 0.5)), (SingleInterface(), (1e-3, 0.5))],
        ids=("cavity", "single"),
    )
    def test_rows(self, geometry, zs, references):
        # each row's integral and magnitude within 6 ulps of the magnitude, for
        # every field kind at every z and for the bracket form; the engine's
        # roundoff allowance of 16 ulps rests on this bound
        eps = np.finfo(float).eps
        for wp in _EXACT_WPS:
            reference = references[type(geometry).__name__, wp][1]
            for kind, z in [(kind, z) for kind in KINDS for z in zs] + [(None, None)]:
                numerators = integrand._drude_parts(kind, geometry, [wp], z)[0](_EXACT_U)[0]
                out = integrand_function(kind, geometry, Drude(wp), z)(_EXACT_U[:, None], quadrature.T_INTEGRAL)
                rows = [out] if kind is not None else [row for row in out if row is not None]
                assert len(rows) == len(numerators)
                for row, numerator in zip(rows, numerators):
                    assert row.dtype == quadrature.T_INTEGRAL_DTYPE and row.shape == (_EXACT_U.size, 1)
                    for i in range(_EXACT_U.size):
                        beta = [mpmath.mpf(v) for v in numerator[:, i]]
                        exact = sum(b * k for b, k in zip(beta, reference[:, i]))
                        magnitude = sum(abs(b) * k for b, k in zip(beta, reference[:, i]))
                        if magnitude < 1e-290:  # both underflow
                            continue
                        for got, want in ((row["integral"][i, 0], exact), (row["magnitude"][i, 0], magnitude)):
                            assert abs(mpmath.mpf(got) - want) <= 6 * eps * magnitude, (wp, kind, z, _EXACT_U[i])

    @pytest.mark.parametrize("geometry, z", [(SingleInterface(), 0.3), (Cavity(1.0), 0.5)], ids=("single", "cavity"))
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    def test_family_rows_match_their_members(self, geometry, z, kind):
        u = _EXACT_U[:, None]
        out = integrand_function(kind, geometry, [Drude(wp) for wp in _EXACT_WPS], z)(u, quadrature.T_INTEGRAL)
        assert out[0] is None and len(out) == len(_EXACT_WPS) + 1
        for got, wp in zip(out[1:], _EXACT_WPS):
            np.testing.assert_array_equal(got, integrand_function(kind, geometry, Drude(wp), z)(u, quadrature.T_INTEGRAL))
            # and one row alone, which would take a matrix-vector product
            alone = integrand_function(kind, geometry, Drude(wp), z)(u[40:41], quadrature.T_INTEGRAL)
            np.testing.assert_array_equal(alone, got[40:41])

    def test_rows_take_the_shape_of_u(self):
        f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(2.0), 0.5)
        assert f(0.7, quadrature.T_INTEGRAL).shape == ()
        assert f(np.array([0.7, 3.0]), quadrature.T_INTEGRAL).shape == (2,)
        single = integrand_function(None, SingleInterface(), Drude(2.0))(np.array([[0.7]]), quadrature.T_INTEGRAL)
        assert single[0] is None and [row.shape for row in single[1:]] == [(1, 1), (1, 1)]
        cavity = integrand_function(None, Cavity(1.0), Drude(2.0))(np.array([[0.7]]), quadrature.T_INTEGRAL)
        assert [row.shape for row in cavity] == [(1, 1)] * 3
        # no u rows give no rows, in the field, bracket and family forms of both geometries
        for geometry in GEOMETRIES:
            f = integrand_function(FieldKind.ENERGY_DENSITY, geometry, Drude(2.0), 0.5)
            assert f(np.empty(0), quadrature.T_INTEGRAL).shape == (0,)
            brackets = integrand_function(None, geometry, Drude(2.0))(np.empty((0, 1)), quadrature.T_INTEGRAL)
            assert [b.shape for b in brackets if b is not None] == [(0, 1)] * (2 + isinstance(geometry, Cavity))
            assert all(b.dtype == quadrature.T_INTEGRAL_DTYPE for b in brackets if b is not None)
            family = integrand_function(FieldKind.ENERGY_DENSITY, geometry, [Drude(2.0), Drude(3.0)], 0.5)
            assert [row.shape for row in family(np.empty(0), quadrature.T_INTEGRAL)[1:]] == [(0,), (0,)]

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_an_empty_t_row_gives_an_empty_grid(self, geometry):
        # a t row with no nodes that is not T_INTEGRAL is evaluated like any other,
        # so a closure called with a copy of T_INTEGRAL is lifted like a plain callable
        u, empty_row = _EXACT_U[:, None], np.empty((1, 0))
        for model in MODELS:
            for kind in KINDS:
                assert integrand_function(kind, geometry, model, 0.3)(u, empty_row).shape == (u.size, 0)
            brackets = integrand_function(None, geometry, model)(u, empty_row)
            assert [b.shape for b in brackets if b is not None] == [(u.size, 0)] * (2 + isinstance(geometry, Cavity))

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_kernel_in_blocks_is_bit_identical(self, monkeypatch, geometry, references):
        # the Gauss rule takes its columns in blocks; every block size gives the same bits
        kernel = integrand._single_kernel if isinstance(geometry, SingleInterface) else integrand._cavity_kernel
        for wp in (*_EXACT_WPS, 0.01):
            factors = references[type(geometry).__name__, wp][0]
            whole = kernel(*factors)
            for block in (1, 2, 7):
                monkeypatch.setattr(integrand, "_GAUSS_BLOCK", block)
                np.testing.assert_array_equal(kernel(*factors), whole)
            monkeypatch.undo()

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_neighbours_do_not_change_bits(self, geometry, references):
        # every column goes through the Gauss rule, and the callers overwrite the
        # near-pole ones: a column's bits do not depend on the others in the call
        kernel = integrand._single_kernel if isinstance(geometry, SingleInterface) else integrand._cavity_kernel
        mixed = 0
        for wp in (*_EXACT_WPS, 0.01):
            factors = references[type(geometry).__name__, wp][0]
            p1 = 1.0 / factors[0] if isinstance(geometry, SingleInterface) else factors[0] / factors[1]
            near = p1 < integrand._GAUSS_POLE
            if near.all() or not near.any():
                continue
            mixed += 1
            whole = kernel(*factors)
            for columns in (~near, near):  # the near columns alone take the closed forms only
                np.testing.assert_array_equal(kernel(*(factor[columns] for factor in factors)), whole[:, columns])
        assert mixed

    @pytest.mark.parametrize("a", (1e-3, 1.0, 1e3))
    def test_extreme_inputs_stay_finite(self, a):
        # near-pole columns go through the Gauss rule too before their closed forms
        # replace them; no value may overflow or warn, from nearly vacuum to nearly
        # a perfect conductor and from u a = 1e-11 to 1e10
        u, wps = np.geomspace(1e-8, 1e7, 301), np.geomspace(1e-5, 1e9, 29).tolist()
        for geometry in (SingleInterface(), Cavity(a)):
            for kind, z in ((None, None), (FieldKind.ENERGY_DENSITY, 0.5 * a)):
                coefficients, kernel = integrand._drude_parts(kind, geometry, wps, z)
                assert np.isfinite(kernel(*coefficients(u)[1])).all(), (geometry, kind)


# The Drude kernel's bit-identity contracts, checked in a child process
# under another OpenBLAS kernel. It prints each contract that fails.
_KERNEL_CONTRACTS = """
import numpy as np
from casimir_fields import Cavity, Drude, FieldKind, SingleInterface, integrand, integrand_function
from casimir_fields.quadrature import T_INTEGRAL


def brackets(out):
    return [bracket for bracket in (out if isinstance(out, tuple) else (out,)) if bracket is not None]


u, wps = np.geomspace(1e-8, 1e4, 97)[:, None], (0.3, 1.0, 96.60661, 200.0, 1e4)
u_grid, t_grid = np.geomspace(1e-3, 1e3, 23)[:, None], np.linspace(0.01, 0.99, 17)[None, :]
# a bigger call, a call on one of its rows, and where that row lies in the bigger one
lone_calls = [
    ((u, T_INTEGRAL), (u[40:41], T_INTEGRAL), np.s_[40:41]),
    ((u_grid, t_grid), (u_grid[5:6], t_grid[:, 3:4]), np.s_[5:6, 3:4]),
]
failed = []
for geometry, z in ((SingleInterface(), 0.3), (Cavity(1.0), 0.5)):
    for kind in FieldKind:
        family = integrand_function(kind, geometry, [Drude(wp) for wp in wps], z)
        for grid, t in ((u, T_INTEGRAL), (u_grid, t_grid)):
            for got, wp in zip(family(grid, t)[1:], wps):
                if got.tobytes() != integrand_function(kind, geometry, Drude(wp), z)(grid, t).tobytes():
                    failed.append(("family member", geometry, kind, wp, t.size))
    for kind, at in [(kind, z) for kind in FieldKind] + [(None, None)]:
        for wp in wps:
            f = integrand_function(kind, geometry, Drude(wp), at)
            for whole, lone, row in lone_calls:
                for got, alone in zip(brackets(f(*whole)), brackets(f(*lone))):
                    if got[row].tobytes() != alone.tobytes():
                        failed.append(("lone row", geometry, kind, wp, lone[1].size))
    coefficients, kernel = integrand._drude_parts(None, geometry, [*wps, 0.01], None)
    factors = coefficients(u.ravel())[1]
    blocks = set()
    for integrand._GAUSS_BLOCK in (1, 7, 512):
        blocks.add(kernel(*factors).tobytes())
    if len(blocks) > 1:
        failed.append(("kernel in blocks", geometry))
print(*failed, sep="\\n")
raise SystemExit(bool(failed))
"""


def _blas_name() -> str:
    return np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("name", "")


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or "openblas" not in _blas_name().lower(),
    reason="OPENBLAS_CORETYPE selects an x86-64 OpenBLAS kernel",
)
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_kernel_contracts_hold_under_other_openblas_kernels(coretype):
    # a family member equals its plain closure, one row equals the same row in a
    # bigger call and the kernel is the same in any block, whichever OpenBLAS kernel
    # takes the products: the setting acts on the child process only
    cpuinfo = Path("/proc/cpuinfo")
    if coretype == "Haswell" and not (cpuinfo.exists() and "avx2" in cpuinfo.read_text()):
        pytest.skip("the Haswell kernel needs AVX2")
    src = str(Path(integrand.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-W", "error", "-c", _KERNEL_CONTRACTS], env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr


# Permittivities of the rows tested: from nearly vacuum, where r and r' taken
# by subtraction lost up to 590 ulps, to nearly a perfect conductor.
_UNDISPERSED_EPS = (1.0 + 1e-6, 1.001, 4.0, 100.0, 1e4, 1e8)
_UNDISPERSED_MODELS = (*(ConstantEpsilon(eps) for eps in _UNDISPERSED_EPS), PerfectConductor(), Vacuum())
# u of the rows: for the cavity (a = 1), from u a = 1e-8, where 1 - r^2 e^{-2ua}
# nearly cancels, to 30, where e^{-2ua} is 1e-26
_UNDISPERSED_U = {"SingleInterface": (0.5, 3.0), "Cavity": (1e-8, 1e-4, 0.01, 1.0, 30.0)}
# Every row's integral and magnitude lie within this many ulps of the
# magnitude of mpmath's (8 at most on these rows); the engine allows 16
# (quadrature._T_INTEGRAL_ROUNDOFF).
_UNDISPERSED_ULPS = 12


@functools.cache
def _gauss_legendre_48():
    """The 48-point Gauss-Legendre rule on [-1, 1] at 80 digits, as (x, w) pairs."""
    with mpmath.workdps(80):
        return GaussLegendre(mpmath.mp).calc_nodes(5, mpmath.mp.prec)


def _undispersed_reference(model, u, a):
    """At 80 digits, the t integrals of C, P_E, P_B and P_U and of their absolute values, for one u: dict name -> (integral, magnitude).

    C is the cavity's constant bracket (absent outside one mirror, a = None)
    and P the position brackets, without prefactor or envelope. They are
    formed from the textbook r = (1 - q)/(1 + q), r' = (eps - q)/(eps + q)
    and D = 1 - r^2 e^{-2ua}, whose cancellations 80 digits outlast, and
    integrated in s, t = sinh(s)/sqrt(eps - 1), by the 48-point rule on
    panels at most 2 wide (error below 1e-50). A perfect conductor takes
    the closed forms, with W the prefactor: single wall E^2 = 2W, B^2 = -2W;
    cavity C = -(2/3) W e^{-2ua}/em, E^2 = 2W/em and B^2 = -2W/em, with
    em = 1 - e^{-2ua}; U = 0. Vacuum gives zeros.
    """
    names = ("C", "E", "B", "U") if a is not None else ("E", "B", "U")
    with mpmath.workdps(80):
        u = mpmath.mpf(u)
        if isinstance(model, Vacuum):
            return {name: (mpmath.mpf(0), mpmath.mpf(0)) for name in names}
        if isinstance(model, PerfectConductor):
            if a is None:
                values = (2, -2, 0)
            else:
                damp = mpmath.exp(-2 * u * a)
                values = (-mpmath.mpf(2) / 3 * damp / (1 - damp), 2 / (1 - damp), -2 / (1 - damp), 0)
            return {name: (mpmath.mpf(v), abs(mpmath.mpf(v))) for name, v in zip(names, values)}
        eps = mpmath.mpf(model.epsilon)
        root = mpmath.sqrt(eps - 1)
        s_max = mpmath.asinh(root)
        panels = int(mpmath.ceil(s_max / 2))
        sums = {name: [mpmath.mpf(0), mpmath.mpf(0)] for name in names}
        for k in range(panels):
            lo, hi = s_max * k / panels, s_max * (k + 1) / panels
            for x, w in _gauss_legendre_48():
                s = (lo + hi) / 2 + (hi - lo) / 2 * x
                t = mpmath.sinh(s) / root
                weight = w * (hi - lo) / 2 * mpmath.cosh(s) / root
                q = mpmath.sqrt(1 + (eps - 1) * t * t)
                r, rp, tt = (1 - q) / (1 + q), (eps - q) / (eps + q), t * t
                values = {}
                if a is not None:
                    damp = mpmath.exp(-2 * u * a)
                    d, dp = 1 - r * r * damp, 1 - rp * rp * damp
                    values["C"] = -tt * (r * r * damp / d + rp * rp * damp / dp)
                    r, rp = r / d, rp / dp
                values["E"] = -tt * r + (2 - tt) * rp
                values["B"] = (2 - tt) * r - tt * rp
                values["U"] = (1 - tt) * (r + rp)
                for name, value in values.items():
                    sums[name][0] += weight * value
                    sums[name][1] += weight * abs(value)
        return {name: tuple(pair) for name, pair in sums.items()}


class TestUndispersedTIntegrals:
    """The rows of the constant-eps, perfect-conductor and vacuum closures at t = T_INTEGRAL against mpmath."""

    @pytest.fixture(scope="class")
    def references(self):
        out = {}
        for geometry in GEOMETRIES:
            name = type(geometry).__name__
            a = geometry.width if isinstance(geometry, Cavity) else None
            for model in _UNDISPERSED_MODELS:
                out[name, model] = [_undispersed_reference(model, u, a) for u in _UNDISPERSED_U[name]]
        return out

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_rows(self, geometry, references):
        # the bracket form's rows and every kind's at z, each row's integral and
        # magnitude within _UNDISPERSED_ULPS of the magnitude; a field's magnitude
        # is |C| + e |P|, which bounds the integral of |C + e P|
        name, z = type(geometry).__name__, 0.3
        u = np.array(_UNDISPERSED_U[name])[:, None]
        cavity = isinstance(geometry, Cavity)
        prefactor = CAVITY_PREFACTOR if cavity else SINGLE_PREFACTOR
        for model in _UNDISPERSED_MODELS:
            closures = {kind: integrand_function(kind, geometry, model, z)(u, quadrature.T_INTEGRAL) for kind in KINDS}
            brackets = integrand_function(None, geometry, model)(u, quadrature.T_INTEGRAL)
            for i, reference in enumerate(references[name, model]):
                with mpmath.workdps(80):
                    ui = mpmath.mpf(u[i, 0])
                    w = prefactor * ui**3
                    if cavity:
                        envelope = (mpmath.exp(-2 * ui * (geometry.width - z)) + mpmath.exp(-2 * ui * z)) / 2
                        constant = reference["C"]
                    else:
                        envelope, constant = mpmath.exp(-2 * ui * z), (0, 0)
                    wanted = []
                    for kind, letter in zip(KINDS, "EBU"):
                        position = reference[letter]
                        want = [w * (c + envelope * p) for c, p in zip(constant, position)]
                        wanted.append((closures[kind], want, (model, u[i, 0], kind)))
                    forms = (("C", brackets[0]),) if cavity else ()
                    for letter, row in (*forms, ("E", brackets[1]), ("B", brackets[2])):
                        wanted.append((row, [w * v for v in reference[letter]], (model, u[i, 0], letter)))
                    for row, (integral, magnitude), label in wanted:
                        assert row.dtype == quadrature.T_INTEGRAL_DTYPE and row.shape == u.shape
                        bound = _UNDISPERSED_ULPS * np.finfo(float).eps * magnitude
                        assert abs(row["integral"][i, 0] - integral) <= bound, label
                        assert abs(row["magnitude"][i, 0] - magnitude) <= bound, label

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("single", "cavity"))
    def test_rows_take_the_shape_of_u(self, geometry):
        for model in (ConstantEpsilon(4.0), PerfectConductor(), Vacuum()):
            f = integrand_function(FieldKind.ENERGY_DENSITY, geometry, model, 0.5)
            assert f(0.7, quadrature.T_INTEGRAL).shape == ()
            assert f(np.array([0.7, 3.0]), quadrature.T_INTEGRAL).shape == (2,)
            brackets = integrand_function(None, geometry, model)(np.array([[0.7]]), quadrature.T_INTEGRAL)
            assert [b.shape for b in brackets if b is not None] == [(1, 1)] * (2 + isinstance(geometry, Cavity))
            assert (brackets[0] is None) == isinstance(geometry, SingleInterface)
            # no u rows give no rows, in the same brackets
            assert f(np.empty(0), quadrature.T_INTEGRAL).shape == (0,)
            brackets = integrand_function(None, geometry, model)(np.empty((0, 1)), quadrature.T_INTEGRAL)
            assert [b.shape for b in brackets if b is not None] == [(0, 1)] * (2 + isinstance(geometry, Cavity))
            assert all(b.dtype == quadrature.T_INTEGRAL_DTYPE for b in brackets if b is not None)

    def test_single_wall_rows_reuse_the_model_integrals(self, monkeypatch):
        # outside one mirror the brackets depend on t alone: their integrals are taken
        # once per model, and a call, or a later closure of the model, only scales them
        def closures():
            fields = [integrand_function(kind, SingleInterface(), ConstantEpsilon(4.0), 0.3) for kind in KINDS]
            return fields + [integrand_function(None, SingleInterface(), ConstantEpsilon(4.0))]

        want = [f(_EXACT_U[:, None], quadrature.T_INTEGRAL) for f in closures()]

        def refused(*args):
            raise AssertionError("reflection factors computed for T_INTEGRAL")

        monkeypatch.setattr(integrand, "_reflection_factors", refused)
        for f, rows in zip(closures(), want):
            got = f(_EXACT_U[:, None], quadrature.T_INTEGRAL)
            if isinstance(rows, tuple):
                assert got[0] is None and rows[0] is None
                got, rows = got[1:], rows[1:]
            np.testing.assert_array_equal(got, rows)

    @pytest.mark.parametrize("model", (ConstantEpsilon(1e8), PerfectConductor()), ids=("eps1e8", "pc"))
    def test_cavity_rows_in_blocks_are_bit_identical(self, monkeypatch, model):
        # a call integrates its rows in blocks within the node cap; every block size,
        # and every row alone, gives the same bits
        u = _EXACT_U[:, None]
        closures = [integrand_function(kind, Cavity(1.0), model, 0.3) for kind in KINDS]
        closures.append(integrand_function(None, Cavity(1.0), model))
        whole = [f(u, quadrature.T_INTEGRAL) for f in closures]
        for cap in (1, 500, 2_000):
            monkeypatch.setattr(quadrature, "_NODE_CAP", cap)
            for f, rows in zip(closures, whole):
                np.testing.assert_array_equal(f(u, quadrature.T_INTEGRAL), rows)
        monkeypatch.undo()
        for f, rows in zip(closures, whole):
            np.testing.assert_array_equal(f(u[40:41], quadrature.T_INTEGRAL), np.asarray(rows)[..., 40:41, :])

    def test_t_rule_panels(self):
        # at most 1 wide in s, so no pole comes nearer a panel than pi/2 of its width
        for eps in _UNDISPERSED_EPS:
            t, weights = integrand._t_rule(ConstantEpsilon(eps))
            s_max = math.asinh(math.sqrt(eps - 1.0))
            assert t.shape == (1, weights.size) and weights.size == 16 * max(1, math.ceil(s_max))
            assert (0.0 < t).all() and (t < 1.0).all() and math.isclose(weights.sum(), 1.0, rel_tol=1e-14)
