"""Span tracing of casimir_fields from outside the package.

A traced pass rebinds the public functions at each module boundary to
wrappers that record a span (name, start, end, parent span, request) and
counts of the work done. Nothing under src/ is edited: every module of the
package that holds a reference to a boundary function gets the wrapper in
its place, so calls between modules are seen whichever module makes them,
and the originals are restored when the pass ends. Spans stay in memory
until the run ends; self time is computed from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "casimir_fields"
# Span name -> (module of the package, attribute) for every wrapped boundary.
BOUNDARIES = {
    "cli.main": ("cli", "main"),
    "analysis.profile": ("analysis", "profile"),
    "analysis.profile_at": ("analysis", "profile_at"),
    "analysis.compute_point": ("analysis", "compute_point"),
    "analysis.midpoint_scan": ("analysis", "midpoint_scan"),
    "analysis.critical_lambda": ("analysis", "critical_lambda"),
    "quadrature.integrate_semi_infinite": ("quadrature", "integrate_semi_infinite"),
    "integrand.cavity_terms": ("integrand", "cavity_terms"),
    "integrand.single_bracket": ("integrand", "single_bracket"),
    "dielectric.reflection_values": ("dielectric", "reflection_values"),
}
# The closures returned by integrand_function are traced as this span.
INTEGRAND_SPAN = "integrand.f"
QUADRATURE_SPAN = "quadrature.integrate_semi_infinite"

# Per-layer metric name -> unit; the traced run reports all of them. The
# end-to-end metric each group should move (wall_s unless named):
#   dielectric.reflection_values  every workload; the Drude rows of
#                                 cavity-profile and midgap-root most
#   integrand.cavity_terms        cavity-profile and midgap-root; zero on single-decades
#   integrand.single_bracket      single-decades only
#   integrand.f                   every workload, and cpu_s; batching over z would
#                                 cut it on the profiles but not on midgap-root
#   quadrature                    mostly midgap-root, where most panel splits happen
#                                 (16 in 51 integrals per pass, against 6 in the 378
#                                 integrals of cavity-profile)
#   analysis.critical_lambda      midgap-root only
#   cli                           small everywhere; shows what richer output costs
#   process.minor_faults          every workload, cpu_s too: page faults of an untraced
#                                 pass. About 0 with the allocator settings of run.py;
#                                 it rises when a pass grows the heap past its earlier
#                                 peak or maps buffers of 32 MB or more, e.g. an
#                                 n_z x n_u envelope matrix
LAYER_METRICS = {
    "dielectric.reflection_values.calls": "count",
    "dielectric.reflection_values.nodes": "count",
    "dielectric.reflection_values.busy_s": "s",
    "dielectric.reflection_values.bytes_out": "B",
    "integrand.cavity_terms.calls": "count",
    "integrand.cavity_terms.nodes": "count",
    "integrand.cavity_terms.busy_s": "s",
    "integrand.single_bracket.calls": "count",
    "integrand.single_bracket.nodes": "count",
    "integrand.single_bracket.busy_s": "s",
    "integrand.f.calls": "count",
    "integrand.f.nodes": "count",
    "integrand.f.self_s": "s",
    "quadrature.integrate_semi_infinite.calls": "count",
    "quadrature.integrate_semi_infinite.self_s": "s",
    "quadrature.integrate_semi_infinite.evaluations": "count",
    "quadrature.integrate_semi_infinite.f_calls_per_integral_max": "count",
    "quadrature.integrate_semi_infinite.nonconvergence": "count",
    "quadrature.oracle_rel_dev": "ratio",
    "quadrature.oracle_dev_over_err": "ratio",
    "analysis.compute_point.busy_s": "s",
    "analysis.profile_at.busy_s": "s",
    "analysis.midpoint_scan.busy_s": "s",
    "analysis.critical_lambda.busy_s": "s",
    "analysis.critical_lambda.integrals": "count",
    "analysis.self_s": "s",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_frac": "ratio",
    "process.minor_faults": "count",
}


def _nodes(result) -> int:
    """Number of grid nodes in an array result or a tuple of broadcastable arrays."""
    if isinstance(result, tuple):
        return int(np.broadcast(*result).size)
    return int(np.size(result))


class Tracer:
    """In-memory span and count recorder; one request per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: list[defaultdict] = []
        self._stack: list[int] = []

    def begin_request(self) -> None:
        self.counts.append(defaultdict(int))

    def add(self, key: str, n: int) -> None:
        self.counts[-1][key] += n

    def wrap(self, fn, name: str, count_nodes: bool = False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            counts = self.counts[-1]
            counts[name + ".calls"] += 1
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.counts) - 1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_nodes:
                counts[name + ".nodes"] += _nodes(result)
            return result

        return traced

    def _wrap_quadrature(self, fn, nonconvergence_type):
        traced = self.wrap(fn, QUADRATURE_SPAN)

        def counted(*args, **kwargs):
            counts = self.counts[-1]
            f_calls_before = counts[INTEGRAND_SPAN + ".calls"]
            try:
                result = traced(*args, **kwargs)
            except nonconvergence_type as exc:
                counts[QUADRATURE_SPAN + ".nonconvergence"] += 1
                if exc.result is not None:
                    counts[QUADRATURE_SPAN + ".evaluations"] += exc.result.evaluations
                raise
            finally:
                key = QUADRATURE_SPAN + ".f_calls_per_integral_max"
                counts[key] = max(counts[key], counts[INTEGRAND_SPAN + ".calls"] - f_calls_before)
            counts[QUADRATURE_SPAN + ".evaluations"] += result.evaluations
            return result

        return counted

    def _wrap_integrand_function(self, fn):
        def traced_factory(*args, **kwargs):
            return self.wrap(fn(*args, **kwargs), INTEGRAND_SPAN, count_nodes=True)

        return traced_factory

    @contextmanager
    def installed(self):
        """Rebind every boundary function of the package to its traced wrapper."""
        package = PACKAGE
        errors = importlib.import_module(f"{package}.errors")
        wrappers = []
        for name, (module, attr) in BOUNDARIES.items():
            original = getattr(importlib.import_module(f"{package}.{module}"), attr)
            if name == QUADRATURE_SPAN:
                wrapper = self._wrap_quadrature(original, errors.NonConvergence)
            else:
                wrapper = self.wrap(original, name, count_nodes=name.split(".")[0] in ("integrand", "dielectric"))
            wrappers.append((original, wrapper))
        factory = importlib.import_module(f"{package}.integrand").integrand_function
        wrappers.append((factory, self._wrap_integrand_function(factory)))

        modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
        restore = []
        try:
            for original, wrapper in wrappers:
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            restore.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def request_metrics(self, request: int) -> dict[str, float]:
        """Per-layer metrics of one traced request, from its spans and counts."""
        busy: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        child_time: defaultdict[int, float] = defaultdict(float)
        ancestors: dict[int, frozenset] = {}
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == request]
        for i, (name, start, end, parent, _) in mine:
            if parent >= 0:
                child_time[parent] += end - start
        integrals_in_root_search = 0
        for i, (name, start, end, parent, _) in mine:
            above = ancestors[parent] | {self.spans[parent][0]} if parent >= 0 else frozenset()
            ancestors[i] = above
            duration = end - start
            if name not in above:
                busy[name] += duration
            self_time[name] += duration - child_time[i]
            if name == QUADRATURE_SPAN and "analysis.critical_lambda" in above:
                integrals_in_root_search += 1

        counts = self.counts[request]
        out = {key: counts.get(key, 0) for key, unit in LAYER_METRICS.items() if unit in ("count", "B")}
        out.update({name + ".busy_s": busy[name] for name in BOUNDARIES})
        out["dielectric.reflection_values.bytes_out"] = 2 * 8 * counts.get("dielectric.reflection_values.nodes", 0)
        out["integrand.f.self_s"] = self_time[INTEGRAND_SPAN]
        out[QUADRATURE_SPAN + ".self_s"] = self_time[QUADRATURE_SPAN]
        out["analysis.self_s"] = sum(v for k, v in self_time.items() if k.startswith("analysis."))
        out["analysis.critical_lambda.integrals"] = integrals_in_root_search
        out["cli.self_s"] = self_time["cli.main"]
        return {k: out[k] for k in LAYER_METRICS if k in out}

    def write(self, path, header: dict) -> None:
        """Write every span and count, with a header describing the run, as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = dict(header)
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "request"]
        payload["names"] = names
        payload["spans"] = [[index[n], a, b, p, r] for n, a, b, p, r in self.spans]
        payload["counts"] = [dict(c) for c in self.counts]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
