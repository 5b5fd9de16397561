"""The benchmark workloads: inputs made from a seed, one timed pass, and output checks.

Each workload is serial and runs in one process. The seed moves parameters
only within ranges that keep the work class: the same models, point counts
and root bracket, so every seed costs about the same and every check holds.
The closed forms used as references are evaluated outside the timed pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

import casimir_fields
from casimir_fields import analysis, cli, closed_form, errors, integrand, quadrature

# Fixed tolerances of the output checks.
CLOSED_FORM_REL_TOL = 1e-6
NEAR_WALL_WINDOW = 0.01
IDENTITY_REL_SLACK = 1e-12
CRITICAL_WINDOW = (95.0, 99.0)
CRITICAL_UM_WINDOW = (1.25, 1.35)
PC_LIMIT_SCALED = -(math.pi**2) / 720.0


class Checks:
    """Tally of correctness checks; a failure keeps its name and detail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return bool(ok)


@dataclass(frozen=True)
class CliRun:
    """Exit code and captured streams of one in-process CLI invocation."""

    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliRun:
    """Run ``casimir-fields argv`` through cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliRun(code, out.getvalue(), err.getvalue())


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        raise ValueError("no column row")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_cli_table(checks: Checks, label: str, run: CliRun, first: CliRun | None, columns: list[str], n_rows: int):
    """Exit code, shape and byte-reproducibility of a CSV command; returns its rows or None."""
    if not checks(f"{label}.exit", run.code == 0, f"exit code {run.code}: {run.stderr.strip()}"):
        return None
    if first is not None:
        checks(f"{label}.same_bytes", run.stdout == first.stdout, "output differs from the first pass")
    try:
        got_columns, rows = parse_csv(run.stdout)
    except ValueError as exc:
        checks(f"{label}.parse", False, str(exc))
        return None
    shape_ok = got_columns == columns and len(rows) == n_rows and all(math.isfinite(v) for r in rows for v in r)
    if not checks(f"{label}.shape", shape_ok, f"columns {got_columns}, {len(rows)} rows, expected {n_rows}"):
        return None
    return rows


def check_identity(checks: Checks, label: str, z, e2, b2, u, err) -> None:
    """U = (e2 + b2)/2 within the reported error plus roundoff."""
    dev = abs(u - 0.5 * (e2 + b2))
    tol = err + IDENTITY_REL_SLACK * max(abs(e2), abs(b2))
    checks(f"{label}.u_identity", dev <= tol, f"z={z!r} |u-(e2+b2)/2|={dev:.3e} > {tol:.3e}")


def check_closed_form(checks: Checks, label: str, z, values, exact, err) -> None:
    """Row within CLOSED_FORM_REL_TOL of the closed forms, and err covering the exact error."""
    scale = max(abs(x) for x in exact)
    devs = [abs(v - x) for v, x in zip(values, exact)]
    rel = max(d / (abs(x) if x != 0 else scale) for d, x in zip(devs, exact))
    checks(f"{label}.closed_form", rel <= CLOSED_FORM_REL_TOL, f"z={z!r} rel_dev={rel:.3e}")
    checks(f"{label}.err_covers", max(devs) <= err, f"z={z!r} exact error {max(devs):.3e} > err {err:.3e}")


def oracle_deviation(geometry, model, z) -> dict[str, float]:
    """Engine against the brute-force oracle for the energy density at one point.

    Information only: the oracle's t rule is independent of the engine's, so
    the deviation shows the t-axis error that the engine's ``err`` omits.
    """
    f = integrand.integrand_function(integrand.FieldKind.ENERGY_DENSITY, geometry, model, z)
    scale = integrand.decay_scale_for(geometry, z)
    engine = quadrature.integrate_semi_infinite(f, scale)
    reference = quadrature.integrate_fixed_grid(f, scale)
    return {
        "quadrature.oracle_rel_dev": abs(engine.value - reference.value) / abs(reference.value),
        "quadrature.oracle_dev_over_err": abs(engine.value - reference.value) / engine.error_estimate,
    }


class CliWorkload:
    """A workload whose pass runs a fixed set of CLI commands, ``self.commands``."""

    commands: dict[str, list[str]]

    def inputs(self) -> dict:
        return {label: " ".join(argv) for label, argv in self.commands.items()}

    def run_pass(self) -> dict[str, CliRun]:
        return {label: run_cli(argv) for label, argv in self.commands.items()}


class CavityProfile(CliWorkload):
    """Many positions sharing one geometry and material, through the CLI."""

    name = "cavity-profile"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.wp = round(rng.uniform(190.0, 210.0), 3)
        self.a = round(rng.uniform(0.95, 1.05), 4)
        common = ["profile", "--geometry", "cavity", "--a", repr(self.a)]
        self.commands = {
            "drude": common + ["--model", "drude", "--wp", repr(self.wp), "--points", "101"],
            "pc": common + ["--model", "pc", "--points", "25"],
        }

    def check(self, checks: Checks, out: dict, first: dict | None) -> None:
        columns = ["z", "e2", "b2", "u", "err"]
        for label, n_rows in (("drude", 101), ("pc", 25)):
            rows = check_cli_table(checks, label, out[label], first and first[label], columns, n_rows)
            for z, e2, b2, u, err in rows or ():
                check_identity(checks, label, z, e2, b2, u, err)
                if label == "pc":
                    exact = (
                        closed_form.pc_cavity_e2(z, self.a),
                        closed_form.pc_cavity_b2(z, self.a),
                        closed_form.pc_cavity_energy(self.a),
                    )
                    check_closed_form(checks, label, z, (e2, b2, u), exact, err)

    def oracle(self) -> dict[str, float]:
        return oracle_deviation(casimir_fields.Cavity(self.a), casimir_fields.Drude(self.wp), 0.5 * self.a)


class SingleDecades:
    """Single-interface profiles over 3.7 decades of distance, through the library."""

    name = "single-decades"
    Z_MIN = 1e-3  # where the near-wall asymptotes are checked, at wp*z = 1e-3

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.z_max = round(rng.uniform(4.0, 6.0), 3)
        self.eps = round(rng.uniform(3.5, 4.5), 3)
        self.cases = {
            "drude": (casimir_fields.Drude(1.0), 64),
            "epsilon": (casimir_fields.ConstantEpsilon(self.eps), 16),
            "pc": (casimir_fields.PerfectConductor(), 16),
        }

    def inputs(self) -> dict:
        return {
            label: f"profile_at(SingleInterface(), {model!r}, geomspace({self.Z_MIN!r}, {self.z_max!r}, {n}))"
            for label, (model, n) in self.cases.items()
        }

    def run_pass(self) -> dict:
        out = {}
        for label, (model, n) in self.cases.items():
            zs = np.geomspace(self.Z_MIN, self.z_max, n)
            try:
                out[label] = analysis.profile_at(casimir_fields.SingleInterface(), model, zs)
            except errors.CasimirFieldsError as exc:
                out[label] = exc
        return out

    def check(self, checks: Checks, out: dict, first: dict | None) -> None:
        for label, (model, n) in self.cases.items():
            result = out[label]
            if not checks(f"{label}.raised", not isinstance(result, Exception), repr(result)):
                continue
            points = result.points
            ok = len(points) == n and all(math.isfinite(v) for p in points for v in (p.e2, p.b2, p.u, p.err))
            if not checks(f"{label}.shape", ok, f"{len(points)} points, expected {n}"):
                continue
            if first is not None and not isinstance(first[label], Exception):
                checks(f"{label}.same_result", points == first[label].points, "result differs from the first pass")
            for p in points:
                check_identity(checks, label, p.z, p.e2, p.b2, p.u, p.err)
                if label == "pc":
                    exact = (closed_form.pc_single_e2(p.z), closed_form.pc_single_b2(p.z), 0.0)
                    check_closed_form(checks, label, p.z, (p.e2, p.b2, p.u), exact, p.err)
            if label == "drude":
                near = points[0]
                asym = closed_form.near_wall_asymptotes(model)
                for kind in ("u", "e2", "b2"):
                    ratio = getattr(near, kind) / getattr(asym, kind).evaluate(near.z)
                    checks(
                        f"drude.near_wall_{kind}",
                        abs(ratio - 1.0) <= NEAR_WALL_WINDOW,
                        f"ratio {ratio:.6f} at z={near.z!r}",
                    )

    def oracle(self) -> dict[str, float]:
        return oracle_deviation(casimir_fields.SingleInterface(), casimir_fields.Drude(1.0), self.Z_MIN)


class MidgapRoot(CliWorkload):
    """Midgap scan over wp*a and the critical root, one integral per value, through the CLI."""

    name = "midgap-root"
    WP_EV = 14.8

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.lmin = round(rng.uniform(8.0, 12.0), 3)
        self.lmax = round(rng.uniform(800.0, 1200.0), 1)
        self.commands = {
            "scan": ["scan", "--lmin", repr(self.lmin), "--lmax", repr(self.lmax), "--points", "40"],
            "critical": ["critical", "--wp-ev", repr(self.WP_EV), "--json"],
        }

    def check(self, checks: Checks, out: dict, first: dict | None) -> None:
        rows = check_cli_table(checks, "scan", out["scan"], first and first["scan"], ["lambda", "u_mid_scaled"], 40)
        if rows is not None:
            values = [u for _, u in rows]
            falls = all(b < a for a, b in zip(values, values[1:]))
            checks("scan.monotone", falls, "scaled midgap energy does not fall monotonically")
            for lam, u in rows:
                checks("scan.above_pc_limit", u > PC_LIMIT_SCALED, f"lambda={lam!r} u={u!r}")

        run = out["critical"]
        if not checks("critical.exit", run.code == 0, f"exit code {run.code}: {run.stderr.strip()}"):
            return
        if first is not None:
            checks("critical.same_bytes", run.stdout == first["critical"].stdout, "output differs from the first pass")
        try:
            report = json.loads(run.stdout)
            lam, um = float(report["critical_lambda"]), float(report["critical_separation_um"])
        except (ValueError, KeyError, TypeError) as exc:
            checks("critical.parse", False, repr(exc))
            return
        lo, hi = CRITICAL_WINDOW
        checks("critical.lambda", lo <= lam <= hi, f"wp*a_c = {lam!r}")
        expected_um = lam * analysis.HBAR_C_EV_NM / self.WP_EV / 1000.0
        lo, hi = CRITICAL_UM_WINDOW
        ok = lo <= um <= hi and abs(um - expected_um) <= 1e-12 * expected_um
        checks("critical.separation_um", ok, f"a_c = {um!r} um, expected {expected_um!r}")

    def oracle(self) -> dict[str, float]:
        return oracle_deviation(casimir_fields.Cavity(1.0), casimir_fields.Drude(200.0), 0.5)


WORKLOADS = {w.name: w for w in (CavityProfile, SingleDecades, MidgapRoot)}
