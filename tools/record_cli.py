"""Record the outputs of the package's reference CLI commands, for comparing two checkouts.

Usage: python3 tools/record_cli.py OUTDIR

Runs each command below as ``python -m casimir_fields.cli`` on the package
of the checkout that holds this script (its ``src`` directory leads
PYTHONPATH), one fresh interpreter per command, and writes into OUTDIR
``NAME.stdout``, ``NAME.stderr`` and ``NAME.code`` (the exit code). Run it
in two checkouts and ``diff -r`` the two directories.
"""

from __future__ import annotations

import os
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/record_cli.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
