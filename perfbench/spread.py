"""Run-to-run spread of the benchmark over seeds 1..10, and the baseline record.

Run from the repository root:

    python3 perfbench/spread.py
    python3 perfbench/spread.py --write perfbench/BENCH_baseline.json

Each run is one ``run.py`` process with its own seed, one after another,
for every workload in BENCHMARK.json. For every end-to-end metric the
spread is the distance between the first and third quartile of the runs
(statistics.quantiles, n=4) as a share of their median; it should stay
below a third of the metric's bound. The unscaled medians in run.py's
report line, and the reference block's time, are summarized the same way
without a gate. ``--write`` adds one traced run per workload, so the
record holds work counts such as integrand evaluations next to the seconds.
Exit code 1 if a run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import launch  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACED_SEED = SEEDS[0]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", default=None, help="write the summary and one traced run per workload here")
    args = p.parse_args(argv)

    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record, status = {"run_seconds": seconds, "runs": len(SEEDS), "workloads": {}}, 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        reports, results = [], []
        for seed in SEEDS:
            report, result = launch(workload, seed, seconds, 0)
            reports.append(report)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        entry = {"environment": reports[0]["environment"], "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            verdict = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            if verdict == "TOO WIDE":
                status = 1
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}  spread {s['spread']:.4f}"
                  f"  bound {bound}  {verdict}", flush=True)
        entry["unscaled"] = {
            k: summarize([r["unscaled"][k] for r in reports]) for k in reports[0]["unscaled"] if k != "nominal_block_s"
        }
        print(f"  {workload} unscaled: " + ", ".join(
            f"{k} median {u['median']:.4g} spread {u['spread']:.3f}" for k, u in entry["unscaled"].items()), flush=True)
        entry["passes"] = [r["passes"]["untraced"] for r in reports]
        entry["checks"] = {"failed": sum(r["failed"] for r in results), "attempted": sum(r["attempted"] for r in results)}
        if args.write:
            report, result = launch(workload, TRACED_SEED, seconds, 1)
            entry["traced_seed"] = TRACED_SEED
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        record["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
