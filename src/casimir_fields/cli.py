"""Command-line front end: profiles, midgap scans, critical separation, limit checks.

Output is CSV (default) or JSON. The `profile` and `scan` tables (CSV
header or JSON ``config``) and `limits --json` record the fully resolved
command, so re-running it reproduces the output byte for byte. It lists
every flag that applies, defaults included, in ``--help`` order, and leaves
out the flags the command ignores (another model's parameter, a cavity's
``--zmin``). The `critical` report and the `limits` text do not carry it.
Exit codes: 0 on success, 1 when a limit check fails, 2 on usage or domain
errors and when the ``--output`` file cannot be written; that file is
opened before any integral runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
from .errors import CasimirFieldsError, DomainError, checked_float
from .integrand import Cavity, SingleInterface
from .quadrature import QuadratureConfig

__all__ = ["main", "build_parser"]

PC_LIMIT_SCALED = -(math.pi**2) / 720.0


def _add_quadrature_args(p: argparse.ArgumentParser) -> None:
    """One ``--field-name`` flag for each field of `QuadratureConfig`, with its default."""
    g = p.add_argument_group("quadrature")
    for field in dataclasses.fields(QuadratureConfig):
        g.add_argument(f"--{field.name.replace('_', '-')}", type=type(field.default), default=field.default)


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
    p.add_argument("--a", type=float, help="cavity width")
    p.add_argument("--zmin", type=float, help="first position (single interface)")
    p.add_argument("--zmax", type=float, help="last position (single interface)")
    p.add_argument("--model", choices=tuple(_MODELS), required=True)
    p.add_argument("--wp", type=float, help="plasma frequency (drude model)")
    p.add_argument("--eps", type=float, help="permittivity (epsilon model)")
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
    p.add_argument("--tol", type=float, default=0.5, help="root tolerance; the root lies within tol/2 of the value")
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
    return QuadratureConfig(**{field.name: getattr(args, field.name) for field in dataclasses.fields(QuadratureConfig)})


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# Parsed values the recorded command leaves out: argparse's own, where the
# bytes go (--output, the stream `main` sets) and the boolean --json.
_UNRECORDED = frozenset({"command", "func", "output", "json", "stream"})


def _recorded_command(args) -> str:
    """The fully resolved command: ``--flag value`` for every parsed value that is not None.

    argparse sets a subcommand's attributes in the order its flags are
    declared, so ``vars(args)`` and the record follow ``--help``. A command
    sets the flags it ignores to None, which keeps them out.
    """
    flags = (f"--{k.replace('_', '-')} {_fmt(v)}" for k, v in vars(args).items() if k not in _UNRECORDED and v is not None)
    return " ".join((f"casimir-fields {args.command}", *flags))


@contextlib.contextmanager
def _output(args):
    """Where the command writes: stdout, or the ``--output`` file, opened before any integral runs."""
    path = getattr(args, "output", None)
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="\n") as handle:
            yield handle
    except OSError as exc:
        raise CasimirFieldsError(f"cannot write --output {path!r}: {exc.strerror or exc}") from exc


def _emit_table(args, columns: list[str], rows: list[list[float]], extra: dict | None = None, checks: Sequence[dict] = ()) -> None:
    """A table headed by its recorded command, the generator and ``extra``'s entries; JSON unless --format says csv."""
    command, generator = _recorded_command(args), f"casimir-fields {__version__}"
    extra = {key: _fmt(value) for key, value in (extra or {}).items()}
    if getattr(args, "format", "json") == "csv":
        lines = [f"# command: {command}", f"# generator: {generator}", *(f"# {key} = {value}" for key, value in extra.items())]
        lines += [",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]
        args.stream.write("\n".join(lines) + "\n")
    else:
        config = {"command": command, "generator": generator, **extra}
        payload = {"config": config, "rows": [dict(zip(columns, row)) for row in rows], "checks": checks}
        args.stream.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# Each --model value: the flag that carries its parameter, if it takes one, and its class.
_MODELS = {
    "drude": ("wp", Drude),
    "epsilon": ("eps", ConstantEpsilon),
    "pc": (None, PerfectConductor),
    "vacuum": (None, Vacuum),
}


def _model_from(args):
    """The model that --model names; the other models' parameters are set to None, as flags this command ignores."""
    flag, model = _MODELS[args.model]
    for other, _ in _MODELS.values():
        if other not in (None, flag):
            setattr(args, other, None)
    if flag is None:
        return model()
    value = getattr(args, flag)
    if value is None:
        raise DomainError(f"the {args.model} model needs --{flag}")
    return model(value)


def cmd_profile(args) -> int:
    cfg = _quad_config(args)
    model = _model_from(args)
    if args.points < 2:
        raise DomainError("--points must be at least 2")
    if args.geometry == "cavity":
        if args.a is None:
            raise DomainError("cavity profiles need --a")
        args.zmin = args.zmax = None
        result = profile(Cavity(args.a), model, args.points, margin=args.margin, cfg=cfg)
    else:
        if args.zmin is None or args.zmax is None:
            raise DomainError("single-interface profiles need --zmin and --zmax")
        zmin = checked_float(args.zmin, "--zmin")
        checked_float(args.zmax, "--zmax", low=zmin)
        args.a = args.margin = None
        zs = np.linspace(args.zmin, args.zmax, args.points)
        result = profile_at(SingleInterface(), model, zs, cfg=cfg)
    rows = [[p.z, p.e2, p.b2, p.u, p.err] for p in result.points]
    _emit_table(args, ["z", "e2", "b2", "u", "err"], rows)
    return 0


def cmd_scan(args) -> int:
    cfg = _quad_config(args)
    points = midpoint_scan(args.lmin, args.lmax, args.points, cfg=cfg, spacing=args.spacing)
    rows = [[p.omega_p_a, p.u_mid_scaled] for p in points]
    _emit_table(args, ["lambda", "u_mid_scaled"], rows, extra={"pc_limit_u_scaled": PC_LIMIT_SCALED})
    return 0


def cmd_critical(args) -> int:
    cfg = _quad_config(args)
    if args.wp_ev is not None:
        checked_float(args.wp_ev, "--wp-ev")
    lam = critical_lambda(cfg, bracket=(args.bracket_lo, args.bracket_hi), tol=args.tol)
    report = {"critical_lambda": lam, "bracket": [args.bracket_lo, args.bracket_hi], "tol": args.tol}
    if args.wp_ev is not None:
        report["omega_p_ev"] = args.wp_ev
        report["critical_separation_um"] = critical_separation_physical(args.wp_ev, lambda_c=lam)
    if args.json:
        args.stream.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        args.stream.write(f"critical wp*a: {lam:.2f} (Chebyshev-Lobatto root search, tol {args.tol})\n")
        if args.wp_ev is not None:
            um = report["critical_separation_um"]
            args.stream.write(f"critical separation for wp = {args.wp_ev} eV: {um:.4f} um (hbar*c = {HBAR_C_EV_NM} eV nm)\n")
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
    checked_float(args.tolerance, "--tolerance")
    checks = _limit_checks(cfg, args.tolerance)
    failed = [c for c in checks if not c["passed"]]
    if args.json:
        _emit_table(args, [], [], checks=checks)
    else:
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            args.stream.write(f"{status} {check['name']} {check['detail']}\n")
        args.stream.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with _output(args) as args.stream:
            return args.func(args)
    except CasimirFieldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
