"""The package's public names, and the names the benchmark tracer looks up in it."""

import dataclasses
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

import casimir_fields
from casimir_fields import (
    Cavity,
    ConstantEpsilon,
    Drude,
    IntegralResult,
    PerfectConductor,
    QuadratureConfig,
    SingleInterface,
    Vacuum,
    analysis,
    integrand,
    quadrature,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves_once():
    assert [name for name, n in Counter(casimir_fields.__all__).items() if n > 1] == []
    for name in casimir_fields.__all__:
        assert hasattr(casimir_fields, name), name


def test_public_attributes_are_the_exports():
    public = {
        name
        for name, value in vars(casimir_fields).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(casimir_fields.__all__) - {"__version__"}


def test_engine_knobs_and_result_fields_are_pinned():
    # a knob or a result field cannot come back without this list changing with it
    assert [field.name for field in dataclasses.fields(QuadratureConfig)] == [
        "rel_tol",
        "abs_tol",
    ]
    assert [field.name for field in dataclasses.fields(IntegralResult)] == [
        "value",
        "error_estimate",
        "evaluations",
        "truncation_u",
    ]


def test_reference_knobs_are_pinned():
    # the oracle's u range, the polygamma depth and an asymptote's name are constants or gone
    assert list(inspect.signature(casimir_fields.integrate_fixed_grid).parameters) == ["f", "decay_scale", "n_u", "envelope"]
    assert list(inspect.signature(casimir_fields.polygamma3).parameters) == ["x"]
    assert [field.name for field in dataclasses.fields(casimir_fields.AsymptoteReport)] == ["leading_coefficient", "power"]


def test_benchmark_boundaries_resolve():
    # perfbench/tracing.py wraps these by getattr and raises on a missing one
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    boundaries = [*tracing.BOUNDARIES.values(), ("integrand", "integrand_function")]
    for module, attr in boundaries:
        assert callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), attr)), (module, attr)


def test_traced_runs_count_every_evaluation():
    # the tracer replaces each closure of integrand_function by a plain wrapper and
    # counts the nodes of its values: u rows for the exact t integrals of every
    # package integrand; the engine's evaluations must agree. A single
    # constant-eps wall runs the engine on its bracket form, called through the
    # modules so the tracer's wrappers are the ones called; its profile is in
    # closed form and calls neither
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    wall = np.geomspace(1e-3, 5.0, 16)
    for run, engine in (
        (lambda: analysis.midpoint_scan(50.0, 150.0, 7), True),
        (lambda: analysis.profile_at(Cavity(1.0), Drude(200.0), np.linspace(0.1, 0.9, 9)), True),
        (lambda: analysis.profile_at(Cavity(1.0), PerfectConductor(), [0.3, 0.5]), True),
        (lambda: analysis.profile_at(SingleInterface(), ConstantEpsilon(4.0), wall), False),
        (
            lambda: quadrature.integrate_semi_infinite(
                integrand.integrand_function(None, SingleInterface(), ConstantEpsilon(4.0)),
                2.0 * wall,
                envelope=integrand.position_envelope(SingleInterface(), wall),
            ),
            True,
        ),
        (lambda: analysis.profile_at(Cavity(1.0), ConstantEpsilon(100.0), np.linspace(0.1, 0.9, 9)), True),
        (lambda: analysis.profile_at(Cavity(1.0), Vacuum(), [0.3, 0.5]), True),
    ):
        tracer.begin_request()
        with tracer.installed():
            run()
        counts = tracer.counts[-1]
        assert counts["integrand.f.nodes"] == counts["quadrature.integrate_semi_infinite.evaluations"]
        assert (counts["quadrature.integrate_semi_infinite.calls"] > 0) == (counts["integrand.f.nodes"] > 0) == engine
        assert counts["quadrature.integrate_semi_infinite.nonconvergence"] == 0
