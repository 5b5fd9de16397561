import math

import numpy as np
import pytest

from casimir_fields import (
    CAVITY_PREFACTOR,
    SINGLE_PREFACTOR,
    Cavity,
    ConstantEpsilon,
    DomainError,
    Drude,
    FieldKind,
    PerfectConductor,
    PolarNode,
    SingleInterface,
    Vacuum,
    cavity_integrand,
    cavity_integrand_terms,
    cavity_terms,
    decay_scale_for,
    integrand_function,
    reflection_values,
    single_bracket,
    single_integrand,
)
from casimir_fields import quadrature
from casimir_fields.integrand import position_envelope

KINDS = (FieldKind.E_SQUARED, FieldKind.B_SQUARED, FieldKind.ENERGY_DENSITY)
MODELS = (Drude(3.0), ConstantEpsilon(4.0), PerfectConductor(), Vacuum())


class TestSingleIntegrand:
    def test_vacuum_vanishes(self):
        for kind in KINDS:
            assert single_integrand(kind, Vacuum(), 1.3, PolarNode(2.0, 0.4)) == 0.0

    def test_perfect_conductor_energy_vanishes(self):
        # bracket (1 - t^2)(r + r') is zero when r = -1 and r' = +1
        for u, t in ((0.5, 0.0), (2.0, 0.7), (10.0, 1.0)):
            value = single_integrand(FieldKind.ENERGY_DENSITY, PerfectConductor(), 0.8, PolarNode(u, t))
            assert value == 0.0

    def test_drude_example_chained_value(self):
        # independent scalar evaluation of the same node
        r = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
        rp = (2.0 - math.sqrt(2.0)) / (2.0 + math.sqrt(2.0))
        expected = (1.0 / (4.0 * math.pi**2)) * math.exp(-2.0) * (-r + rp)
        value = single_integrand(FieldKind.E_SQUARED, Drude(1.0), 1.0, PolarNode(1.0, 1.0))
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx((1.0 / (4.0 * math.pi**2)) * math.exp(-2.0) * 0.343146, rel=1e-5)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(DomainError):
            single_integrand(FieldKind.E_SQUARED, Drude(1.0), 0.0, PolarNode(1.0, 0.5))
        with pytest.raises(DomainError):
            single_integrand(FieldKind.E_SQUARED, Drude(1.0), -2.0, PolarNode(1.0, 0.5))

    def test_energy_is_mean_of_squared_fields(self, rng):
        model = Drude(3.0)
        for _ in range(50):
            node = PolarNode(float(10.0 ** rng.uniform(-2, 2)), float(rng.uniform(0, 1)))
            e2 = single_integrand(FieldKind.E_SQUARED, model, 0.7, node)
            b2 = single_integrand(FieldKind.B_SQUARED, model, 0.7, node)
            u = single_integrand(FieldKind.ENERGY_DENSITY, model, 0.7, node)
            assert u == pytest.approx(0.5 * (e2 + b2), rel=1e-12, abs=1e-300)


class TestCavityTerms:
    def test_vacuum_terms_vanish(self):
        terms = cavity_integrand_terms(FieldKind.ENERGY_DENSITY, Vacuum(), 1.0, 0.3, PolarNode(2.0, 0.5))
        assert terms.term_constant == 0.0 and terms.term_position == 0.0

    def test_pc_energy_position_term_vanishes(self):
        terms = cavity_integrand_terms(FieldKind.ENERGY_DENSITY, PerfectConductor(), 1.0, 0.3, PolarNode(2.0, 0.5))
        assert terms.term_position == 0.0
        assert terms.term_constant < 0.0

    def test_pc_energy_exact_node_value(self):
        # a = 1, z = 0.5, u = 1, t = 0.5: constant term is 2 t^2 / (1 - e^2)
        terms = cavity_integrand_terms(FieldKind.ENERGY_DENSITY, PerfectConductor(), 1.0, 0.5, PolarNode(1.0, 0.5))
        expected_const = 2.0 * 0.25 / (1.0 - math.exp(2.0))
        assert terms.term_constant == pytest.approx(expected_const, rel=1e-13)
        value = cavity_integrand(FieldKind.ENERGY_DENSITY, PerfectConductor(), 1.0, 0.5, PolarNode(1.0, 0.5))
        assert value == pytest.approx(CAVITY_PREFACTOR * expected_const, rel=1e-13)
        assert value < 0.0

    def test_midgap_minimizes_position_term(self):
        model = Drude(5.0)
        node = PolarNode(2.0, 0.4)
        mid = cavity_integrand_terms(FieldKind.ENERGY_DENSITY, model, 1.0, 0.5, node).term_position
        for z in (0.1, 0.3, 0.42, 0.9):
            off = cavity_integrand_terms(FieldKind.ENERGY_DENSITY, model, 1.0, z, node).term_position
            assert off >= mid

    def test_position_rejected_outside_gap(self):
        for z in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                cavity_integrand_terms(FieldKind.ENERGY_DENSITY, Drude(1.0), 1.0, z, PolarNode(1.0, 0.5))

    def test_u_zero_terms_diverge_for_unit_reflectivity(self):
        with pytest.raises(DomainError):
            cavity_integrand_terms(FieldKind.ENERGY_DENSITY, PerfectConductor(), 1.0, 0.5, PolarNode(0.0, 0.5))
        with pytest.raises(DomainError):
            cavity_integrand_terms(FieldKind.ENERGY_DENSITY, Drude(1.0), 1.0, 0.5, PolarNode(0.0, 0.5))

    def test_u_zero_integrand_limit_is_zero(self):
        assert cavity_integrand(FieldKind.ENERGY_DENSITY, PerfectConductor(), 1.0, 0.5, PolarNode(0.0, 0.5)) == 0.0
        assert cavity_integrand(FieldKind.E_SQUARED, Drude(1.0), 1.0, 0.3, PolarNode(0.0, 0.2)) == 0.0

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
        model = Drude(7.0)
        for z in (0.1, 0.25, 0.4):
            for u, t in ((0.5, 0.3), (3.0, 0.9), (20.0, 0.05)):
                left = cavity_integrand(FieldKind.ENERGY_DENSITY, model, 1.0, z, PolarNode(u, t))
                right = cavity_integrand(FieldKind.ENERGY_DENSITY, model, 1.0, 1.0 - z, PolarNode(u, t))
                assert left == pytest.approx(right, rel=1e-13)

    def test_energy_is_mean_of_squared_fields(self, rng):
        model = Drude(12.0)
        for _ in range(50):
            node = PolarNode(float(10.0 ** rng.uniform(-2, 2)), float(rng.uniform(0, 1)))
            e2 = cavity_integrand(FieldKind.E_SQUARED, model, 1.0, 0.3, node)
            b2 = cavity_integrand(FieldKind.B_SQUARED, model, 1.0, 0.3, node)
            u = cavity_integrand(FieldKind.ENERGY_DENSITY, model, 1.0, 0.3, node)
            assert u == pytest.approx(0.5 * (e2 + b2), rel=1e-12, abs=1e-300)

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
        model = Drude(200.0)
        z, a = 0.01, 1.0
        for u in (500.0, 2000.0):
            node = PolarNode(u, 0.4)
            cav = cavity_integrand(FieldKind.ENERGY_DENSITY, model, a, z, node)
            single = single_integrand(FieldKind.ENERGY_DENSITY, model, z, node)
            assert cav == pytest.approx(single, rel=1e-12)

    def test_decay_bound_justifies_truncation(self):
        # |integrand| <= C u^3 exp(-2 u min(z, a-z)) with C stable beyond wp
        model = Drude(5.0)
        z, a, t = 0.3, 1.0, 0.4
        scale = 2.0 * min(z, a - z)
        u = np.geomspace(5.0, 100.0, 40)
        vals = np.array([abs(cavity_integrand(FieldKind.ENERGY_DENSITY, model, a, z, PolarNode(float(ui), t))) for ui in u])
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

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            Cavity(0.0)
        with pytest.raises(DomainError):
            Cavity(-1.0)

    def test_integrand_function_matches_scalar_ops(self):
        model = Drude(2.0)
        u = np.array([[0.7], [3.0]])
        t = np.array([[0.2, 0.9]])
        f = integrand_function(FieldKind.B_SQUARED, SingleInterface(), model, 0.6)
        grid = f(u, t)
        for i in range(2):
            for j in range(2):
                expected = single_integrand(FieldKind.B_SQUARED, model, 0.6, PolarNode(u[i, 0], t[0, j]))
                assert grid[i, j] == pytest.approx(expected, rel=1e-14)
        f = integrand_function(FieldKind.B_SQUARED, Cavity(1.0), model, 0.6)
        grid = f(u, t)
        for i in range(2):
            for j in range(2):
                expected = cavity_integrand(FieldKind.B_SQUARED, model, 1.0, 0.6, PolarNode(u[i, 0], t[0, j]))
                assert grid[i, j] == pytest.approx(expected, rel=1e-14)


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



def _plain_brackets(geometry, r, rp, u, t):
    """Constant bracket (None for one wall), each kind's bracket and the reflected pair (r/D, r'/D'), one plain expression each."""
    tt = t * t
    constant = None
    if isinstance(geometry, Cavity):
        a = geometry.width
        em, damp = -np.expm1(-2.0 * u * a), np.exp(-2.0 * u * a)
        dr = (1.0 - r) * (1.0 + r) + r * r * em
        drp = (1.0 - rp) * (1.0 + rp) + rp * rp * em
        constant = -tt * (r * r * damp / dr + rp * rp * damp / drp)
        r, rp = r / dr, rp / drp
    e2, b2, energy = -tt * r + (2.0 - tt) * rp, (2.0 - tt) * r - tt * rp, (1.0 - tt) * (r + rp)
    return constant, dict(zip(KINDS, (e2, b2, energy))), (r, rp)


def _plain_fields(geometry, r, rp, u, t, z):
    """Each kind's integrand at z from `_plain_brackets`, and two scales of its nodes per kind.

    The scales are u^3 (|C| + e (|r/D| + |r'/D'|)) and u^3 (|C| + e |P|),
    where |P| is the kind's own bracket with every term taken positive: the
    size of the parts whose cancellation roundoff is measured against, the
    second also where (1 - t^2) makes a bracket vanish.
    """
    constant, brackets, (gr, grp) = _plain_brackets(geometry, r, rp, u, t)
    tt, gr, grp = t * t, np.abs(gr), np.abs(grp)
    parts = {
        FieldKind.E_SQUARED: tt * gr + (2.0 - tt) * grp,
        FieldKind.B_SQUARED: (2.0 - tt) * gr + tt * grp,
        FieldKind.ENERGY_DENSITY: (1.0 - tt) * (gr + grp),
    }
    if isinstance(geometry, SingleInterface):
        w, envelope = SINGLE_PREFACTOR * u**3, np.exp(-2.0 * u * z)
        fields = {kind: w * b * envelope for kind, b in brackets.items()}
        return fields, {kind: (w * envelope * (gr + grp), w * envelope * parts[kind]) for kind in KINDS}
    w = CAVITY_PREFACTOR * u**3
    envelope = 0.5 * (np.exp(-2.0 * u * (geometry.width - z)) + np.exp(-2.0 * u * z))
    fields = {kind: w * (constant + b * envelope) for kind, b in brackets.items()}
    scales = {kind: tuple(w * (np.abs(constant) + envelope * p) for p in (gr + grp, parts[kind])) for kind in KINDS}
    return fields, scales


def _drude_reflections_longdouble(wp, u, t):
    """The Drude (r, r') of `reflection_values` in np.longdouble, from the textbook ratios."""
    wp, u, t = np.longdouble(wp), np.asarray(u, dtype=np.longdouble), np.asarray(t, dtype=np.longdouble)
    s = u + np.sqrt(u * u + wp * wp)
    tt = t * t
    return -(wp * wp) / (s * s), wp * wp * (1 - (u / s) * tt) / (wp * wp + tt * u * s)


def _parent_field(kind, geometry, model, z, u, t):
    """A field integrand by the bracket arithmetic every non-Drude closure uses: `cavity_terms` or `single_bracket`."""
    r, rp = reflection_values(model, u, t)
    if isinstance(geometry, Cavity):
        constant, position = cavity_terms(kind, r, rp, u, t, geometry.width, z)
        return CAVITY_PREFACTOR * u**3 * (constant + position)
    return SINGLE_PREFACTOR * u**3 * single_bracket(kind, r, rp, t) * np.exp(-2.0 * u * z)


def _node_errors(geometry, model, z, u, t):
    """Per kind and per scale of `_plain_fields`, the largest |f - f_ld| / scale of the closure and of the bracket arithmetic.

    f_ld is `_plain_fields` in np.longdouble; nodes whose scale is below
    1e-280 are left out, since float64 underflows there on both sides.
    """
    u_ld, t_ld = np.asarray(u, dtype=np.longdouble), np.asarray(t, dtype=np.longdouble)
    exact, scales = _plain_fields(geometry, *_drude_reflections_longdouble(model.plasma_frequency, u, t), u_ld, t_ld, z)
    errors = []
    for kind in KINDS:
        closure = integrand_function(kind, geometry, model, z)(u, t)
        bracket_arithmetic = _parent_field(kind, geometry, model, z, u, t)
        for scale in scales[kind]:
            counted = scale > 1e-280
            assert counted.any()
            relative = [np.abs(got - exact[kind]) / np.where(counted, scale, 1) for got in (closure, bracket_arithmetic)]
            errors.append([float(np.max(error[counted])) for error in relative])
    return errors


def _engine_grids(geometry, z):
    """(u, t) of the engine's seed mesh on the full-depth order-16 t rule, and of its probe rows on the first probe stage's t row."""
    _, probe_u, seed_u, _ = quadrature._seed_mesh(60.0 / decay_scale_for(geometry, z), quadrature._SEED_SPLITS)
    seed_t = quadrature._graded_t_rule(16, quadrature._T_RULE_LEVELS)[0]
    return (seed_u[:, None], seed_t[None, :]), (probe_u[:, None], quadrature._probe_grid(16, 0)[0])


_ORACLE_GRID = (np.geomspace(1e-8, 600.0, 240)[:, None], np.geomspace(1e-16, 1.0, 160)[None, :])


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended-precision long double")
@pytest.mark.parametrize(
    "geometry, z",
    [(Cavity(1.0), 0.02), (Cavity(1.0), 0.35), (Cavity(1.0), 0.5), (SingleInterface(), 1e-3), (SingleInterface(), 0.3)],
    ids=("cavity-0.02", "cavity-0.35", "cavity-0.5", "single-1e-3", "single-0.3"),
)
def test_drude_closures_are_as_accurate_as_the_bracket_arithmetic(geometry, z):
    # the Drude field closures evaluate rational functions of t^2; against the
    # plain expressions in extended precision, their worst node error, relative
    # to the size of the parts that cancel, is at most twice that of the
    # bracket arithmetic on the engine's grids and on the oracle's ranges
    for wp in (0.3, 2.0, 96.60661, 200.0, 1e4):
        for u, t in (*_engine_grids(geometry, z), _ORACLE_GRID):
            for closure, bracket_arithmetic in _node_errors(geometry, Drude(wp), z, u, t):
                assert closure <= 2.0 * bracket_arithmetic, (wp, u.shape, t.shape)


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
    # a bit. The Drude field closures evaluate rational functions of t^2 instead
    # and meet the extended-precision bound of the test above on these shapes; on
    # a few nodes the bracket arithmetic can land within an ulp by chance, so the
    # bound there is at least 4 float64 ulps of the scale
    z = 0.3
    for model in (*MODELS, Drude(97.0)):
        constant, brackets, _ = _plain_brackets(geometry, *reflection_values(model, u, t), u, t)
        if isinstance(geometry, SingleInterface):
            w = SINGLE_PREFACTOR * u**3
            form = (None, w * brackets[FieldKind.E_SQUARED], w * brackets[FieldKind.B_SQUARED])
        else:
            w = CAVITY_PREFACTOR * u**3
            form = (w * constant, w * brackets[FieldKind.E_SQUARED], w * brackets[FieldKind.B_SQUARED])
        for got, expected in zip(integrand_function(None, geometry, model)(u, t), form, strict=True):
            if expected is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, expected, strict=True)
        plain, _ = _plain_fields(geometry, *reflection_values(model, u, t), u, t, z)
        if not isinstance(model, Drude):
            for kind, expected in plain.items():
                np.testing.assert_array_equal(integrand_function(kind, geometry, model, z)(u, t), expected, strict=True)
            continue
        for kind in KINDS:
            assert np.shape(integrand_function(kind, geometry, model, z)(u, t)) == np.shape(plain[kind])
        for closure, bracket_arithmetic in _node_errors(geometry, model, z, u, t):
            assert closure <= max(2.0 * bracket_arithmetic, 4 * np.finfo(float).eps)


def test_drude_closures_take_u_and_t_on_different_axes():
    f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), Drude(2.0), 0.5)
    u, t = np.geomspace(0.1, 10.0, 4), np.linspace(0.1, 0.9, 4)
    for bad_u, bad_t in ((u, t), (u[None, :], t[:, None]), (u[None, :, None], t[:, None, None])):
        with pytest.raises(DomainError):
            f(bad_u, bad_t)
    np.testing.assert_array_equal(f(u[:, None, None], t[None, None, :])[:, 0], f(u[:, None], t[None, :]))


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
