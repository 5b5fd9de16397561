"""Record the outputs of the package's reference CLI commands, and compare two recordings.

Usage: python3 tools/record_cli.py OUTDIR
       python3 tools/record_cli.py --compare OLD NEW

With OUTDIR, runs each command below as ``python -m casimir_fields.cli``
on the package of the checkout that holds this script (its ``src``
directory leads PYTHONPATH), one fresh interpreter per command, and writes
into OUTDIR ``NAME.stdout``, ``NAME.stderr`` and ``NAME.code`` (the exit
code). Run it in two checkouts.

With ``--compare OLD NEW``, prints one line per command: "identical", or,
for an output that holds a table (CSV rows under a header, or a JSON
``rows`` list), the rows changed, the largest relative move of a value and,
where the table has an ``err`` column, the largest move over the sum of the
two rows' ``err`` and the median of new ``err`` over old. Other outputs
report their changed lines and the largest relative move of the numbers on
them. Exits 1 if a move exceeds its rows' summed ``err``, a table changes
its columns or row count, or an exit code changes; 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> the CLI arguments, as each output's recorded `# command:` line has them
COMMANDS = {
    "profile-cavity-drude200": "profile --geometry cavity --model drude --wp 200 --a 1 --points 101",
    "profile-cavity-pc": "profile --geometry cavity --model pc --a 1 --points 25",
    "profile-single-drude1": "profile --geometry single --model drude --wp 1 --zmin 0.001 --zmax 5 --points 64",
    "profile-single-drude1-json": "profile --geometry single --model drude --wp 1 --zmin 0.01 --zmax 5 --points 64 --format json",
    "profile-single-eps4": "profile --geometry single --model epsilon --eps 4 --zmin 0.001 --zmax 5 --points 16",
    "profile-cavity-vacuum": "profile --geometry cavity --model vacuum --a 1 --points 5",
    "scan": "scan --lmin 10 --lmax 1000 --points 40",
    "critical": "critical",
    "critical-json": "critical --json",
    "critical-wp-ev": "critical --wp-ev 14.8",
    "limits": "limits",
    "limits-json": "limits --json",
}
PARTS = ("stdout", "stderr", "code")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def record(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    for name, command in COMMANDS.items():
        run = subprocess.run(
            [sys.executable, "-m", "casimir_fields.cli", *command.split()], capture_output=True, text=True, env=env
        )
        (out / f"{name}.stdout").write_text(run.stdout)
        (out / f"{name}.stderr").write_text(run.stderr)
        (out / f"{name}.code").write_text(f"{run.returncode}\n")
    return 0


def _table(text: str):
    """The columns and rows (lists of floats) of one output's table, and the output without it; None if it holds none."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        rows = payload.pop("rows", None) if isinstance(payload, dict) else None
        if not rows:
            return None
        columns = list(rows[0])
        return columns, [[float(row[c]) for c in columns] for row in rows], json.dumps(payload, sort_keys=True)
    lines = text.splitlines()
    body = [line for line in lines if line and not line.startswith("#")]
    if len(body) < 2:
        return None
    try:
        rows = [[float(cell) for cell in line.split(",")] for line in body[1:]]
    except ValueError:
        return None
    return body[0].split(","), rows, "\n".join(line for line in lines if line.startswith("#"))


def _relative(old: float, new: float) -> float:
    return 0.0 if old == new else abs(new - old) / max(abs(old), abs(new))


def _compare_table(old, new) -> tuple[str, bool]:
    """The report of one changed table, and whether it fails: a move beyond its rows' summed err, or a new shape."""
    (columns, old_rows, old_rest), (new_columns, new_rows, new_rest) = old, new
    if columns != new_columns or len(old_rows) != len(new_rows):
        return f"table columns or row count changed ({len(old_rows)} -> {len(new_rows)} rows)", True
    k = columns.index("err") if "err" in columns else None
    changed = sum(a != b for a, b in zip(old_rows, new_rows))
    moved = [(i, j) for i in range(len(old_rows)) for j in range(len(columns)) if j != k and old_rows[i][j] != new_rows[i][j]]
    largest = max((_relative(old_rows[i][j], new_rows[i][j]) for i, j in moved), default=0.0)
    report = f"{changed}/{len(old_rows)} rows changed, largest relative move {largest:.2e}"
    failed = False
    if k is not None:
        err_sum = [old_row[k] + new_row[k] for old_row, new_row in zip(old_rows, new_rows)]
        over_err = [abs(new_rows[i][j] - old_rows[i][j]) / err_sum[i] if err_sum[i] else math.inf for i, j in moved]
        growths = [new_row[k] / old_row[k] for old_row, new_row in zip(old_rows, new_rows) if old_row[k]]
        worst = max(over_err, default=0.0)
        report += f", largest move/(err old + err new) {worst:.2e}, "
        report += f"err new/old median {statistics.median(growths):.3g}" if growths else "err 0 before"
        failed = worst > 1.0
    else:
        report += ", no err column"
    if old_rest != new_rest:
        report += "; lines outside the table differ"
    return report, failed


def _compare_lines(old: str, new: str) -> str:
    """The changed lines of an output that holds no table, and the largest relative move of the numbers on them."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    pairs = [(a, b) for a, b in zip(old_lines, new_lines) if a != b]
    moves = [_relative(float(x), float(y)) for a, b in pairs for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))]
    report = f"{len(pairs) + abs(len(old_lines) - len(new_lines))} lines changed"
    return report + (f", largest relative move of a number {max(moves):.2e}" if moves else "")


def compare(old_dir: Path, new_dir: Path) -> int:
    failed = False
    for name in COMMANDS:
        old, new = ({part: (d / f"{name}.{part}").read_text() for part in PARTS} for d in (old_dir, new_dir))
        if old == new:
            print(f"{name}: identical")
            continue
        reports = []
        if old["code"] != new["code"]:
            reports.append(f"exit code {old['code'].strip()} -> {new['code'].strip()}")
            failed = True
        if old["stderr"] != new["stderr"]:
            reports.append(f"stderr: {_compare_lines(old['stderr'], new['stderr'])}")
        if old["stdout"] != new["stdout"]:
            tables = _table(old["stdout"]), _table(new["stdout"])
            if None in tables:
                reports.append(f"stdout: {_compare_lines(old['stdout'], new['stdout'])}")
            else:
                report, table_failed = _compare_table(*tables)
                reports.append(f"table: {report}")
                failed |= table_failed
        print(f"{name}: {'; '.join(reports)}")
    return int(failed)


def main(argv: list[str]) -> int:
    if len(argv) == 1 and not argv[0].startswith("-"):
        return record(Path(argv[0]))
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    print("usage: python3 tools/record_cli.py OUTDIR\n       python3 tools/record_cli.py --compare OLD NEW", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
