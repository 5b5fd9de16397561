"""Benchmark of casimir-fields: end-to-end timing of three workloads and a traced per-layer run.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload cavity-profile --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads (see workloads.py):

* cavity-profile - CLI ``profile`` of a Drude(wp ~ 200) cavity at 101 positions
  plus a 25-point perfect-conductor cavity: many positions share one geometry
  and material, which is where batching over z would pay.
* single-decades - library ``profile_at`` outside one mirror, Drude(1) at 64
  positions over 1e-3..~5 plus constant-eps and perfect-conductor rows: the
  u truncation spans three decades, so a shared u mesh would cost here.
* midgap-root - CLI ``scan`` of 40 wp*a values and ``critical``: one z per
  integral and sequential bisection; most panel splits happen here (16 in
  51 integrals per pass, against 6 in the 378 integrals of cavity-profile).

A run repeats the workload's pass in this process until ``--seconds`` would
be exceeded, checking every pass's output, and measures set-up in fresh
interpreters before, between and after the passes.

Every time is scaled to the host's speed: a block of fixed numpy work
(reference.py) is timed before and after each pass, and a time t is
reported as t * REFERENCE_BLOCK_S / block time, i.e. in seconds on a host
where the block takes REFERENCE_BLOCK_S (0.1 s). A pass is scaled by the
mean of the two blocks beside it; set-up, sampled over the whole run, by
the run's median block. The host's speed drifts by up to 1.8x over
minutes, which moved the unscaled medians of ten runs by more than 25%;
the scaled times move with the program only. The unscaled medians and the
block times are in the report line.

With ``--trace 1`` passes alternate untraced and traced; spans are written
to ``--trace-out`` when the run ends, and per-layer metrics are the median
over traced passes. The last line of standard output is the result object;
the line before it is a report with sample counts, the environment and
every failed check. Exit code 1 means a check failed, 2 a usage error or a
missing ./src/casimir_fields.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKERS_ENV_VAR = "CASIMIR_FIELDS_MAX_WORKERS"
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is sampled before the passes, after them, and at most
# SETUP_MID_SAMPLES times between passes, evenly over the run: the host's
# speed shifts in phases of seconds, so samples spread over the whole run
# give a steadier median than samples taken back to back.
SETUP_EDGE_SAMPLES = 4
SETUP_MID_SAMPLES = 8
TAIL_BEYOND = 10

# glibc reads these at start-up. They turn off heap trimming and keep the
# integrand's temporaries off mmap, so allocator page faults are out of the
# benchmark's scope. Which ~130 KB temporaries of an integrand call sit at
# the top of the heap when freed, and so are trimmed and faulted back in,
# depends on the heap layout: left to glibc, one single-decades pass took
# 0.9 s or 1.6 s in processes that differed only in the script path. With
# glibc's default thresholds fixed, or MALLOC_TRIM_THRESHOLD_=0, a pass made
# 291,000 or 452,000 faults depending on the checkout path and even on the
# length of --seed. Mapping every temporary (MALLOC_MMAP_THRESHOLD_ below
# 130 KB) is steady but more than doubles the pass time. The seconds in
# ROADMAP.md include this cost.
ALLOCATOR_ENV = {"MALLOC_TRIM_THRESHOLD_": str(1 << 30), "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_tail": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Fresh-interpreter set-up: package import plus the first integral, whose
# lazy set-up builds the graded t rule. Prints seconds and the package path.
SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import numpy as np
import casimir_fields
from casimir_fields.quadrature import integrate_semi_infinite
integrate_semi_infinite(lambda u, t: u**3 * np.exp(-u) * (1.0 - t * t), 1.0)
print(time.perf_counter() - t0, casimir_fields.__file__)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None, help="span file (default .bench_out/trace-<workload>-<seed>.json)")
    return p.parse_args(argv)


def prepare_environment() -> int:
    """Serial package, BLAS threads capped at the usable cores; returns that core count."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop(WORKERS_ENV_VAR, None)
    for var in BLAS_ENV_VARS:
        try:
            ok = 1 <= int(os.environ[var]) <= nproc
        except (KeyError, ValueError):
            ok = False
        if not ok:
            os.environ[var] = str(nproc)
    return nproc


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(root: Path, nproc: int, seed: int) -> dict:
    import numpy as np

    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "allocator": {var: os.environ.get(var) for var in ALLOCATOR_ENV},
        WORKERS_ENV_VAR: os.environ.get(WORKERS_ENV_VAR, "unset"),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def measure_setup(root: Path, src: Path, checks, count: int) -> list[float]:
    """Seconds of import plus first-integral set-up, one fresh interpreter per sample."""
    env = dict(os.environ, PYTHONPATH=str(src))
    # Imports normally come from cached bytecode; the first sample writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=env, capture_output=True, text=True, timeout=120
        )
        fields = proc.stdout.split(maxsplit=1)
        ok = proc.returncode == 0 and len(fields) == 2 and Path(fields[1].strip()).is_relative_to(src)
        if checks("setup.exit", ok, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"):
            samples.append(float(fields[0]))
    return samples


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond).

    The rank is never taken below the upper middle sample, so with too few
    samples for a true tail the upper median is reported and ``beyond`` is
    smaller than TAIL_BEYOND.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def run_passes(workload, seconds: float, checks, sample_setup, tracer=None) -> list[dict]:
    """Repeat the workload until the next pass would overrun ``seconds``; one record per pass.

    A reference block is timed before the first pass and after every pass;
    a record's ``ref_wall_s``/``ref_cpu_s`` are the mean of the blocks on
    either side of its pass. Every pass is checked, against the first
    pass's output for reproducibility.
    Between passes ``sample_setup()`` is called at most SETUP_MID_SAMPLES
    times, evenly over ``seconds``. With a tracer, passes alternate untraced
    and traced.
    """
    import reference

    records, first = [], None
    ref = reference.timed_block()
    began = time.perf_counter()
    setup_every = seconds / (SETUP_MID_SAMPLES + 1)
    next_setup = began + setup_every
    while True:
        if time.perf_counter() >= next_setup:
            sample_setup()
            next_setup += setup_every
        traced = tracer is not None and len(records) % 2 == 1
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if traced:
            tracer.begin_request()
            with tracer.installed():
                cpu0, wall0 = time.process_time(), time.perf_counter()
                out = workload.run_pass()
                wall1, cpu1 = time.perf_counter(), time.process_time()
            tracer.add("cli.bytes_out", sum(len(r.stdout.encode()) for r in out.values() if hasattr(r, "stdout")))
        else:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            out = workload.run_pass()
            wall1, cpu1 = time.perf_counter(), time.process_time()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        ref_next = reference.timed_block()
        records.append({
            "wall_s": wall1 - wall0,
            "cpu_s": cpu1 - cpu0,
            "ref_wall_s": 0.5 * (ref[0] + ref_next[0]),
            "ref_cpu_s": 0.5 * (ref[1] + ref_next[1]),
            "minor_faults": faults,
            "traced": traced,
        })
        ref = ref_next
        workload.check(checks, out, first)
        if first is None:
            first = out
        elapsed = time.perf_counter() - began
        longest = max(r["wall_s"] + r["ref_wall_s"] for r in records)
        if len(records) >= 2 and elapsed + longest > seconds:
            return records


def run_one(args, root: Path, src: Path) -> int:
    nproc = prepare_environment()
    import workloads
    import tracing
    import reference

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(workloads.casimir_fields.__file__).is_relative_to(src):
        print(f"error: casimir_fields imported from {workloads.casimir_fields.__file__}, not {src}", file=sys.stderr)
        return 2

    checks = workloads.Checks()
    setup = measure_setup(root, src, checks, SETUP_EDGE_SAMPLES)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    # Warm this process the same way, so passes time steady-state work only.
    np = workloads.np
    workloads.quadrature.integrate_semi_infinite(lambda u, t: u**3 * np.exp(-u) * (1.0 - t * t), 1.0)

    tracer = tracing.Tracer() if args.trace else None
    def sample_setup():
        setup.extend(measure_setup(root, src, checks, 1))

    records = run_passes(workload, args.seconds, checks, sample_setup, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(root, src, checks, SETUP_EDGE_SAMPLES)

    unit = reference.REFERENCE_BLOCK_S

    def scaled_wall(r):
        return r["wall_s"] * unit / r["ref_wall_s"]

    plain = [r for r in records if not r["traced"]]
    walls = [scaled_wall(r) for r in plain]
    tail_value, tail_pct, tail_beyond = tail(walls)
    # Set-up samples are spread over the run, so they are scaled by the
    # median block of the whole run.
    block_median = statistics.median(r["ref_wall_s"] for r in records)
    setup_median = statistics.median(setup) * unit / block_median if setup else None
    wall_median = statistics.median(walls)
    cpu_median = statistics.median(r["cpu_s"] * unit / r["ref_cpu_s"] for r in plain)
    if tracer is None:
        values = {
            "setup_s": setup_median,
            "wall_s": wall_median,
            "wall_s_tail": tail_value,
            "cpu_s": cpu_median,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        units = tracing.LAYER_METRICS
        per_request = [tracer.request_metrics(i) for i in range(len(tracer.counts))]
        # Counts repeat exactly from pass to pass; median_low keeps them whole numbers.
        values = {
            k: (statistics.median_low if units[k] in ("count", "B") else statistics.median)(m[k] for m in per_request)
            for k in per_request[0]
        }
        traced_walls = [scaled_wall(r) for r in records if r["traced"]]
        values["trace.overhead_frac"] = statistics.median(traced_walls) / wall_median - 1.0
        values["process.minor_faults"] = statistics.median_low(r["minor_faults"] for r in plain)
        nodes = [m["integrand.f.nodes"] for m in per_request]
        evaluations = [m["quadrature.integrate_semi_infinite.evaluations"] for m in per_request]
        checks("trace.nodes_match_evaluations", nodes == evaluations, f"f nodes {nodes} != evaluations {evaluations}")
        values.update(workload.oracle())  # after the timed passes, with tracing removed

    failed = len(checks.failures)
    report = {
        "workload": workload.name,
        "inputs": workload.inputs(),
        "environment": environment(root, nproc, args.seed),
        "passes": {"untraced": len(plain), "traced": len(records) - len(plain)},
        "setup_s": {"median": setup_median, "unscaled_samples": setup},
        "wall_s": {"median": wall_median, "samples": len(walls)},
        "unscaled": {
            "nominal_block_s": unit,
            "block_s_median": block_median,
            "setup_s_median": statistics.median(setup) if setup else None,
            "wall_s_median": statistics.median(r["wall_s"] for r in plain),
            "cpu_s_median": statistics.median(r["cpu_s"] for r in plain),
        },
        "wall_s_tail": {"value": tail_value, "percentile": tail_pct, "beyond": tail_beyond, "samples": len(walls)},
        "cpu_s": {"median": cpu_median, "samples": len(plain)},
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": {"value": failed / checks.attempted, "failed": failed, "attempted": checks.attempted},
        "failures": checks.failures[:50],
    }

    if tracer is not None:
        out_path = Path(args.trace_out or root / ".bench_out" / f"trace-{workload.name}-{args.seed}.json")
        tracer.write(out_path, {"workload": workload.name, "seed": args.seed, "environment": report["environment"]})
        report["trace_file"] = str(out_path)

    correct = failed == 0 and setup != []
    print(json.dumps(report, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if values.get(name) is not None}
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def launch(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload in a child process of this script; its report and result lines.

    Raises RuntimeError, with the child's output, if it exits nonzero.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_all(args) -> int:
    """Run every workload in its own process and print each metric by name and unit."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        try:
            report, result = launch(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            status = 1
            continue
        frac = report["failed_frac"]
        print(f"{name}  failed_frac = {frac['value']:.6g} ratio ({frac['failed']} of {frac['attempted']} checks)")
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in ALLOCATOR_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **ALLOCATOR_ENV})
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "casimir_fields" / "__init__.py").is_file():
        print(f"error: {src}/casimir_fields not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
