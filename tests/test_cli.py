import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from casimir_fields import cli
from casimir_fields.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def integrals(monkeypatch):
    """Every engine call the analysis layer makes, recorded and then made."""
    from casimir_fields import analysis

    calls, integrate = [], analysis.integrate_semi_infinite

    def recording(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(analysis, "integrate_semi_infinite", recording)
    return calls


def parse_csv(text):
    header = [line for line in text.splitlines() if line.startswith("#")]
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    columns = body[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in body[1:]]
    return header, columns, rows


class TestProfileCommand:
    def test_single_drude_positive_energy(self, capsys):
        code, out, _ = run_cli(
            "profile --geometry single --model drude --wp 1 --zmin 0.5 --zmax 5 --points 16 --format csv".split(),
            capsys,
        )
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["z", "e2", "b2", "u", "err"]
        assert len(rows) == 16
        assert any(line.startswith("# command:") for line in header)
        u_col = [row[3] for row in rows]
        assert all(u > 0.0 for u in u_col)

    def test_cavity_pc_constant_energy(self, capsys):
        code, out, _ = run_cli(
            "profile --geometry cavity --model pc --a 1 --points 7 --format csv".split(), capsys
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        expected = -(math.pi**2) / 720.0
        for row in rows:
            assert abs(row[3] - expected) <= max(1e-8 * abs(expected), 10 * row[4])

    def test_cavity_drude_symmetric_negative_center(self, capsys):
        code, out, _ = run_cli(
            "profile --geometry cavity --model drude --wp 200 --a 1 --points 9 --format csv".split(), capsys
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        u_col = [row[3] for row in rows]
        errs = [row[4] for row in rows]
        assert u_col[len(u_col) // 2] < 0.0
        for i in range(len(rows)):
            j = len(rows) - 1 - i
            assert abs(u_col[i] - u_col[j]) <= 2.0 * (errs[i] + errs[j]) + 1e-14

    def test_missing_model_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli("profile --geometry single --model drude --zmin 0.5 --zmax 1".split(), capsys)
        assert code == 2
        assert "wp" in err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("profile --geometry cavity --model pc --a 1 --points 1", "--points"),
            ("profile --geometry cavity --model pc --points 3", "--a"),
            ("profile --geometry single --model pc --zmin 0.5 --points 3", "--zmax"),
            # a NaN or infinite end reached linspace, whose RuntimeWarning came before the error
            ("profile --geometry single --model pc --zmin 1 --zmax inf --points 3", "--zmax must be a finite number in (1.0, inf), got inf"),
            ("profile --geometry single --model pc --zmin nan --zmax 1 --points 3", "--zmin must be a finite number in (0.0, inf), got nan"),
            ("profile --geometry single --model pc --zmin 0 --zmax 1 --points 3", "--zmin"),
            ("profile --geometry single --model pc --zmin 1 --zmax 1 --points 3", "--zmax"),
        ],
        ids=("one-point", "cavity-without-a", "single-without-zmax", "zmax-inf", "zmin-nan", "zmin-zero", "zmax-at-zmin"),
    )
    def test_missing_or_bad_geometry_flag_is_one_line_usage_error(self, capsys, integrals, command, flag):
        code, out, err = run_cli(command.split(), capsys)
        assert code == 2 and out == "" and integrals == []
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize(
        "command",
        [
            "profile --geometry cavity --model drude --wp 1e-300 --a 1 --points 3",
            "scan --lmin 1e-200 --lmax 1 --points 2",
        ],
        ids=("profile", "scan"),
    )
    def test_non_finite_integrand_is_one_line_error(self, capsys, command):
        # the Drude cavity arithmetic overflows at wp a this small, which printed NaN rows and
        # exited 0; the engine now refuses them (numpy's overflow warnings are not under test)
        with np.errstate(all="ignore"):
            code, out, err = run_cli(command.split(), capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "not finite" in err

    def test_bad_window_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            "profile --geometry single --model vacuum --zmin 2 --zmax 1".split(), capsys
        )
        assert code == 2

    def test_epsilon_model_quartic_falloff(self, capsys):
        code, out, _ = run_cli(
            "profile --geometry single --model epsilon --eps 4 --zmin 0.5 --zmax 1.0 --points 2".split(),
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0][3] / rows[1][3] == pytest.approx(16.0, rel=1e-8)

    def test_json_format_structure(self, capsys):
        code, out, _ = run_cli(
            "profile --geometry cavity --model pc --a 1 --points 3 --format json".split(), capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "checks"}
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"z", "e2", "b2", "u", "err"}
        assert "command" in payload["config"]


class TestOutputReproducibility:
    def test_identical_invocations_byte_identical(self, tmp_path, capsys):
        args = "profile --geometry cavity --model drude --wp 50 --a 1 --points 5"
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(shlex.split(args) + ["--output", str(first)]) == 0
        assert main(shlex.split(args) + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "args, ignored",
        [
            ("scan --lmin 40 --lmax 160 --points 4", ()),
            ("profile --geometry single --model pc --zmin 0.1 --zmax 2 --points 5 --a 2 --margin 0.1", ("--a", "--margin")),
            ("profile --geometry cavity --model drude --wp 50 --a 1 --points 5 --eps 3 --zmin 0.1", ("--eps", "--zmin")),
        ],
        ids=("scan", "single-wall-given-a-and-margin", "cavity-given-eps-and-zmin"),
    )
    def test_header_command_reproduces_file(self, tmp_path, capsys, args, ignored):
        original = tmp_path / "original.csv"
        assert main(shlex.split(args) + ["--output", str(original)]) == 0
        header_line = next(
            line for line in original.read_text().splitlines() if line.startswith("# command:")
        )
        command = header_line.removeprefix("# command:").strip()
        argv = shlex.split(command)
        assert not set(ignored) & set(argv)
        assert argv[0] == "casimir-fields"
        replay = tmp_path / "replay.csv"
        assert main(argv[1:] + ["--output", str(replay)]) == 0
        capsys.readouterr()
        assert replay.read_bytes() == original.read_bytes()

    def test_unwritable_output_is_one_line_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            "profile --geometry cavity --model pc --a 1 --points 3 --output".split() + [str(target)], capsys
        )
        assert code == 2
        assert out == "" and not target.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--output" in err and str(target) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            "scan --lmin 10 --lmax 1000 --points 40",
            "profile --geometry cavity --model drude --wp 200 --a 1 --points 101",
            "profile --geometry single --model drude --wp 1 --zmin 0.5 --zmax 5 --points 64",
        ],
        ids=("scan", "cavity-profile", "single-profile"),
    )
    def test_unwritable_output_fails_before_any_integral(self, tmp_path, capsys, monkeypatch, command):
        def not_called(*args, **kwargs):
            raise AssertionError("computed before the --output file was opened")

        for name in ("midpoint_scan", "profile", "profile_at"):
            monkeypatch.setattr(cli, name, not_called)
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(command.split() + ["--output", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --output {str(target)!r}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file_holds_the_stdout_bytes(self, tmp_path, capsys, fmt):
        argv = f"scan --lmin 40 --lmax 160 --points 4 --format {fmt}".split()
        target = tmp_path / "scan.out"
        code, printed, _ = run_cli(argv, capsys)
        assert code == 0
        code, out, err = run_cli(argv + ["--output", str(target)], capsys)
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == printed.encode()


class TestScanCommand:
    def test_default_style_grid_has_single_sign_change(self, capsys):
        code, out, _ = run_cli("scan --lmin 10 --lmax 1000 --points 40".split(), capsys)
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["lambda", "u_mid_scaled"]
        assert len(rows) == 40
        assert any("pc_limit" in line for line in header)
        values = np.array([row[1] for row in rows])
        sign_changes = int(np.sum(np.signbit(values[1:]) != np.signbit(values[:-1])))
        assert sign_changes == 1
        lams = np.array([row[0] for row in rows])
        crossing = lams[:-1][np.signbit(values[1:]) != np.signbit(values[:-1])][0]
        assert 80.0 <= crossing <= 120.0

    def test_high_range_all_negative(self, capsys):
        code, out, _ = run_cli("scan --lmin 200 --lmax 400 --points 5".split(), capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(row[1] < 0.0 for row in rows)

    def test_empty_range_usage_error(self, capsys):
        code, _, err = run_cli("scan --lmin 100 --lmax 100 --points 5".split(), capsys)
        assert code == 2
        assert err


class TestCriticalCommand:
    def test_default_report(self, capsys):
        code, out, _ = run_cli(["critical"], capsys)
        assert code == 0
        lam = float(out.split("critical wp*a:")[1].split()[0])
        assert 95.0 <= lam <= 103.0

    def test_physical_separation(self, capsys):
        code, out, _ = run_cli("critical --wp-ev 14.8".split(), capsys)
        assert code == 0
        a_c = float(out.split("critical separation for wp = 14.8 eV:")[1].split()[0])
        assert 1.25 <= a_c <= 1.35

    def test_json_report(self, capsys):
        code, out, _ = run_cli("critical --json --wp-ev 14.8".split(), capsys)
        assert code == 0
        payload = json.loads(out)
        assert 95.0 <= payload["critical_lambda"] <= 103.0
        assert 1.25 <= payload["critical_separation_um"] <= 1.35

    @pytest.mark.parametrize("value", ["0", "nan", "-1", "inf", "-inf"])
    def test_invalid_plasma_frequency_fails_before_any_integral(self, capsys, integrals, value):
        code, _, err = run_cli(["critical", f"--wp-ev={value}"], capsys)
        assert code == 2
        assert "--wp-ev" in err
        assert integrals == []

    def test_invalid_bracket_exit_code(self, capsys):
        code, _, err = run_cli("critical --bracket-lo 200 --bracket-hi 300".split(), capsys)
        assert code == 2
        assert "change sign" in err


class TestLimitsCommand:
    def test_default_battery_passes(self, capsys):
        code, out, _ = run_cli(["limits"], capsys)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run_cli("limits --tolerance 1e-12".split(), capsys)
        assert code == 1
        assert any(line.startswith("FAIL near_wall") for line in out.splitlines())

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf"])
    def test_invalid_tolerance_fails_before_any_integral(self, capsys, integrals, value):
        code, out, err = run_cli(["limits", f"--tolerance={value}"], capsys)
        assert code == 2
        assert "--tolerance" in err
        assert out == "" and integrals == []

    def test_json_report(self, capsys):
        code, out, _ = run_cli("limits --json".split(), capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "checks"}
        assert payload["rows"] == []
        assert all(check["passed"] for check in payload["checks"])
        names = {check["name"] for check in payload["checks"]}
        assert {"pc_cavity_energy_quadrature", "polygamma_reflection_formula", "near_wall_b2_ratio"} <= names


class TestParserBasics:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command",
        ["profile --geometry cavity --model pc --a 1", "scan", "critical", "limits"],
        ids=("profile", "scan", "critical", "limits"),
    )
    def test_inner_order_is_refused(self, command, capsys):
        # every package integral takes its t integral exactly, so no angular rule is left to set
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + ["--inner-order", "16"])
        assert excinfo.value.code == 2
        assert "--inner-order" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tail-budget", "--max-subdivisions"])
    @pytest.mark.parametrize("command", ["profile --geometry cavity --model pc --a 1", "scan", "critical", "limits"])
    def test_budget_flags_are_refused(self, command, flag, capsys):
        # the truncation point and the split budget are the engine's constants
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + [flag, "60"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_recorded_commands_carry_the_quadrature_flags(self, capsys):
        code, out, _ = run_cli(PC_PROFILE, capsys)
        assert code == 0
        assert out.splitlines()[0] == (
            "# command: casimir-fields profile --geometry cavity --a 1.0 --model pc --points 3 --margin 0.02 "
            "--format csv --rel-tol 1e-08 --abs-tol 1e-14"
        )
        code, out, _ = run_cli("limits --json".split(), capsys)
        assert code == 0
        assert json.loads(out)["config"]["command"] == (
            "casimir-fields limits --tolerance 0.01 --rel-tol 1e-08 --abs-tol 1e-14"
        )

    def test_a_declared_flag_is_recorded_with_no_second_declaration(self, capsys, monkeypatch):
        # the parser is the only declaration of what a table's command records
        declare = cli._add_quadrature_args

        def declare_one_more(p):
            declare(p)
            p.add_argument("--extra-flag", type=float, default=0.25)

        monkeypatch.setattr(cli, "_add_quadrature_args", declare_one_more)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        for argv in (PC_PROFILE, "scan --points 2".split()):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            assert out.splitlines()[0].endswith("--abs-tol 1e-14 --extra-flag 0.25")
        code, out, _ = run_cli("limits --json".split(), capsys)
        assert code == 0
        assert json.loads(out)["config"]["command"].endswith("--abs-tol 1e-14 --extra-flag 0.25")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "casimir-fields" in capsys.readouterr().out


PC_PROFILE = "profile --geometry cavity --model pc --a 1 --points 3".split()


class TestSharedParser:
    def test_earlier_commands_leave_no_trace(self, capsys):
        profile_argv = "profile --geometry cavity --model drude --wp 200 --a 1 --points 9".split()
        first = run_cli(profile_argv, capsys)
        assert first[0] == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert run_cli("profile --geometry cavity --model drude --a 1".split(), capsys)[0] == 2
        assert run_cli(["scan"], capsys)[0] == 0
        assert run_cli("critical --json".split(), capsys)[0] == 0
        assert run_cli("limits --json".split(), capsys)[0] == 0
        assert run_cli(profile_argv, capsys) == first

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        builds, build = [], cli.build_parser

        def counting():
            builds.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        try:
            for _ in range(3):
                assert run_cli(PC_PROFILE, capsys)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_one_shot_run_prints_the_in_process_bytes(self, capsys):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        shell = subprocess.run(
            [sys.executable, "-m", "casimir_fields.cli", *PC_PROFILE], env=env, capture_output=True, check=True
        )
        code, out, _ = run_cli(PC_PROFILE, capsys)
        assert code == 0
        assert shell.stdout == out.encode()
