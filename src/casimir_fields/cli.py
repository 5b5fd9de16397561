"""Command-line front end: profiles, midgap scans, critical separation, limit checks.

Output is CSV (default) or JSON. The `profile` and `scan` tables (CSV
header or JSON ``config``) and `limits --json` record the fully resolved
command, so re-running it reproduces the output byte for byte; the
`critical` report and the `limits` text do not carry it. Exit codes: 0 on
success, 1 when a limit check fails, 2 on usage or domain errors and when
the ``--output`` file cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import (
    HBAR_C_EV_NM,
    compute_point,
    critical_lambda,
    critical_separation_physical,
    midpoint_scan,
    profile,
    profile_at,
)
from .closed_form import (
    casimir_polder,
    near_wall_asymptotes,
    pc_cavity_b2,
    pc_cavity_b2_polygamma,
    pc_cavity_e2,
    pc_cavity_e2_polygamma,
    pc_cavity_energy,
    pc_single_b2,
    pc_single_e2,
    polygamma3,
)
from .dielectric import ConstantEpsilon, Drude, PerfectConductor, Vacuum
from .errors import CasimirFieldsError, DomainError, is_finite_real
from .integrand import Cavity, SingleInterface
from .quadrature import QuadratureConfig

__all__ = ["main", "build_parser"]

PC_LIMIT_SCALED = -(math.pi**2) / 720.0

_QUAD_DEFAULTS = QuadratureConfig()


def _add_quadrature_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("quadrature")
    g.add_argument("--rel-tol", type=float, default=_QUAD_DEFAULTS.rel_tol)
    g.add_argument("--abs-tol", type=float, default=_QUAD_DEFAULTS.abs_tol)
    g.add_argument("--tail-budget", type=float, default=_QUAD_DEFAULTS.tail_exponent_budget)
    g.add_argument("--max-subdivisions", type=int, default=_QUAD_DEFAULTS.max_subdivisions)
    g.add_argument("--inner-order", type=int, default=_QUAD_DEFAULTS.inner_rule_order)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-fields",
        description="Vacuum field expectations and energy density near dispersive mirrors",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="field expectations on a grid of positions")
    p.add_argument("--geometry", choices=("single", "cavity"), required=True)
    p.add_argument("--model", choices=("drude", "epsilon", "pc", "vacuum"), required=True)
    p.add_argument("--wp", type=float, help="plasma frequency (drude model)")
    p.add_argument("--eps", type=float, help="permittivity (epsilon model)")
    p.add_argument("--a", type=float, help="cavity width")
    p.add_argument("--zmin", type=float, help="first position (single interface)")
    p.add_argument("--zmax", type=float, help="last position (single interface)")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--margin", type=float, default=0.02, help="wall margin as a fraction of the width (cavity)")
    _add_output_args(p)
    _add_quadrature_args(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("scan", help="scaled midgap energy density over a grid of wp*a")
    p.add_argument("--lmin", type=float, default=10.0)
    p.add_argument("--lmax", type=float, default=1000.0)
    p.add_argument("--points", type=int, default=40)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    _add_output_args(p)
    _add_quadrature_args(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("critical", help="wp*a at which the midgap energy density turns negative")
    p.add_argument("--bracket-lo", type=float, default=50.0)
    p.add_argument("--bracket-hi", type=float, default=200.0)
    p.add_argument("--tol", type=float, default=0.5, help="final bracket width; the root lies within tol/2 of the value")
    p.add_argument("--wp-ev", type=float, help="also report the physical width for this plasma frequency in eV")
    p.add_argument("--json", action="store_true")
    _add_quadrature_args(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("limits", help="run the closed-form and asymptote check battery")
    p.add_argument("--tolerance", type=float, default=0.01, help="window for the near-wall asymptote ratios")
    p.add_argument("--json", action="store_true")
    _add_quadrature_args(p)
    p.set_defaults(func=cmd_limits)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and kept for the process.

    Sharing it is safe: `parse_args` keeps no state between calls, and every
    default is immutable.
    """
    return build_parser()


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        tail_exponent_budget=args.tail_budget,
        max_subdivisions=args.max_subdivisions,
        inner_rule_order=args.inner_order,
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _normalized_command(subcommand: str, pairs: list[tuple[str, object]]) -> str:
    parts = [f"casimir-fields {subcommand}"]
    for flag, value in pairs:
        if value is None:
            continue
        parts.append(f"--{flag} {_fmt(value)}")
    return " ".join(parts)


def _quad_pairs(args) -> list[tuple[str, object]]:
    return [
        ("rel-tol", args.rel_tol),
        ("abs-tol", args.abs_tol),
        ("tail-budget", args.tail_budget),
        ("max-subdivisions", args.max_subdivisions),
        ("inner-order", args.inner_order),
    ]


def _write_text(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise CasimirFieldsError(f"cannot write --output {args.output!r}: {exc.strerror or exc}") from exc


def _emit_table(args, command: str, extra_header: list[str], columns: list[str], rows: list[list[float]]) -> None:
    if args.format == "csv":
        lines = [f"# command: {command}", f"# generator: casimir-fields {__version__}"]
        lines += [f"# {line}" for line in extra_header]
        lines.append(",".join(columns))
        lines += [",".join(map(_fmt, row)) for row in rows]
        _write_text(args, "\n".join(lines) + "\n")
    else:
        config = {"command": command, "generator": f"casimir-fields {__version__}"}
        for line in extra_header:
            key, _, value = line.partition(" = ")
            config[key] = value
        payload = {
            "config": config,
            "rows": [dict(zip(columns, row)) for row in rows],
            "checks": [],
        }
        _write_text(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _model_from(args):
    if args.model == "drude":
        if args.wp is None:
            raise DomainError("the drude model needs --wp")
        return Drude(args.wp)
    if args.model == "epsilon":
        if args.eps is None:
            raise DomainError("the epsilon model needs --eps")
        return ConstantEpsilon(args.eps)
    if args.model == "pc":
        return PerfectConductor()
    return Vacuum()


def _model_pairs(args) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = [("model", args.model)]
    if args.model == "drude":
        pairs.append(("wp", args.wp))
    elif args.model == "epsilon":
        pairs.append(("eps", args.eps))
    return pairs


def cmd_profile(args) -> int:
    cfg = _quad_config(args)
    model = _model_from(args)
    if args.points < 2:
        raise DomainError("--points must be at least 2")
    if args.geometry == "cavity":
        if args.a is None:
            raise DomainError("cavity profiles need --a")
        result = profile(Cavity(args.a), model, args.points, margin=args.margin, cfg=cfg)
        geo_pairs = [("geometry", "cavity"), ("a", args.a)]
        grid_pairs = [("points", args.points), ("margin", args.margin)]
    else:
        if args.zmin is None or args.zmax is None:
            raise DomainError("single-interface profiles need --zmin and --zmax")
        if not (0 < args.zmin < args.zmax):
            raise DomainError(f"need 0 < zmin < zmax, got {args.zmin!r}, {args.zmax!r}")
        zs = np.linspace(args.zmin, args.zmax, args.points)
        result = profile_at(SingleInterface(), model, zs, cfg=cfg)
        geo_pairs = [("geometry", "single"), ("zmin", args.zmin), ("zmax", args.zmax)]
        grid_pairs = [("points", args.points)]
    command = _normalized_command(
        "profile",
        geo_pairs + _model_pairs(args) + grid_pairs + [("format", args.format)] + _quad_pairs(args),
    )
    rows = [[p.z, p.e2, p.b2, p.u, p.err] for p in result.points]
    _emit_table(args, command, [], ["z", "e2", "b2", "u", "err"], rows)
    return 0


def cmd_scan(args) -> int:
    cfg = _quad_config(args)
    points = midpoint_scan(args.lmin, args.lmax, args.points, cfg=cfg, spacing=args.spacing)
    command = _normalized_command(
        "scan",
        [
            ("lmin", args.lmin),
            ("lmax", args.lmax),
            ("points", args.points),
            ("spacing", args.spacing),
            ("format", args.format),
        ]
        + _quad_pairs(args),
    )
    rows = [[p.omega_p_a, p.u_mid_scaled] for p in points]
    _emit_table(args, command, [f"pc_limit_u_scaled = {_fmt(PC_LIMIT_SCALED)}"], ["lambda", "u_mid_scaled"], rows)
    return 0


def _check_positive(flag: str, value) -> None:
    """Refuse a flag's value unless it is a positive finite number, before any integral is computed."""
    if not (is_finite_real(value) and value > 0):
        raise DomainError(f"--{flag} must be a positive finite number, got {value!r}")


def cmd_critical(args) -> int:
    cfg = _quad_config(args)
    if args.wp_ev is not None:
        _check_positive("wp-ev", args.wp_ev)
    lam = critical_lambda(cfg, bracket=(args.bracket_lo, args.bracket_hi), tol=args.tol)
    report = {"critical_lambda": lam, "bracket": [args.bracket_lo, args.bracket_hi], "tol": args.tol}
    if args.wp_ev is not None:
        report["omega_p_ev"] = args.wp_ev
        report["critical_separation_um"] = critical_separation_physical(args.wp_ev, lambda_c=lam)
    if args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(f"critical wp*a: {lam:.2f} (ITP root search, bracket tol {args.tol})\n")
        if args.wp_ev is not None:
            sys.stdout.write(
                f"critical separation for wp = {args.wp_ev} eV: "
                f"{report['critical_separation_um']:.4f} um (hbar*c = {HBAR_C_EV_NM} eV nm)\n"
            )
    return 0


def _limit_checks(cfg: QuadratureConfig, window: float) -> list[dict]:
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(abs(b), 1e-300)

    pc = PerfectConductor()

    # perfect-conductor cavity: quadrature against closed forms
    a = 1.0
    point = compute_point(Cavity(a), pc, 0.5 * a, cfg)
    d = rel(point.u, pc_cavity_energy(a))
    record("pc_cavity_energy_quadrature", d <= 1e-6, f"rel_diff={d:.3e} tol=1e-06")
    d = max(rel(point.e2, pc_cavity_e2(0.5 * a, a)), rel(point.b2, pc_cavity_b2(0.5 * a, a)))
    record("pc_cavity_fields_quadrature", d <= 1e-5, f"rel_diff={d:.3e} tol=1e-05")

    # the two closed-form routes must agree with each other
    d = 0.0
    for z in (0.1, 0.25, 0.5, 0.8):
        d = max(d, rel(pc_cavity_e2(z, a), pc_cavity_e2_polygamma(z, a)))
        d = max(d, rel(pc_cavity_b2(z, a), pc_cavity_b2_polygamma(z, a)))
    record("pc_cavity_polygamma_route", d <= 1e-10, f"rel_diff={d:.3e} tol=1e-10")

    # polygamma reflection formula
    d = 0.0
    for x in (0.25, 1.0 / 3.0, 0.5):
        s = math.sin(math.pi * x)
        c = math.cos(math.pi * x)
        reference = 2.0 * math.pi**4 * (1.0 + 2.0 * c * c) / s**4
        d = max(d, rel(polygamma3(x) + polygamma3(1.0 - x), reference))
    record("polygamma_reflection_formula", d <= 1e-10, f"rel_diff={d:.3e} tol=1e-10")

    # perfect-conductor single interface
    point = compute_point(SingleInterface(), pc, 0.5, cfg)
    d = max(rel(point.e2, pc_single_e2(0.5)), rel(point.b2, pc_single_b2(0.5)))
    record("pc_single_fields_quadrature", d <= 1e-5, f"rel_diff={d:.3e} tol=1e-05")
    record("pc_single_energy_zero", abs(point.u) <= cfg.abs_tol, f"|u|={abs(point.u):.3e} tol={cfg.abs_tol:.0e}")

    # Casimir-Polder consistency
    d = rel(casimir_polder(1.0, 1.0), -0.5 * pc_single_e2(1.0))
    record("casimir_polder_identity", d <= 1e-14, f"rel_diff={d:.3e} tol=1e-14")

    # near-wall asymptote ratios for a Drude mirror at wp*z = 1e-3
    drude = Drude(1.0)
    asym = near_wall_asymptotes(drude)
    z = 1e-3
    point = compute_point(SingleInterface(), drude, z, cfg)
    for name, numeric, asymptote in (
        ("near_wall_u_ratio", point.u, asym.u),
        ("near_wall_e2_ratio", point.e2, asym.e2),
        ("near_wall_b2_ratio", point.b2, asym.b2),
    ):
        ratio = numeric / asymptote.evaluate(z)
        record(name, abs(ratio - 1.0) <= window, f"ratio={ratio:.6f} window={window:g}")

    return checks


def cmd_limits(args) -> int:
    cfg = _quad_config(args)
    _check_positive("tolerance", args.tolerance)
    checks = _limit_checks(cfg, args.tolerance)
    failed = [c for c in checks if not c["passed"]]
    if args.json:
        command = _normalized_command("limits", [("tolerance", args.tolerance)] + _quad_pairs(args))
        payload = {
            "config": {"command": command, "generator": f"casimir-fields {__version__}"},
            "rows": [],
            "checks": checks,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            sys.stdout.write(f"{status} {check['name']} {check['detail']}\n")
        sys.stdout.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CasimirFieldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
