"""`tools/record_cli.py --compare` on hand-made recordings."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("record_cli", Path(__file__).resolve().parent.parent / "tools" / "record_cli.py")
record_cli = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_cli)

VACUUM = """# command: casimir-fields profile --geometry cavity --model vacuum
# generator: casimir-fields 0.1.0
z,e2,b2,u,err
0.02,0.0,0.0,0.0,0.0
0.5,0.0,0.0,0.0,0.0
"""


def test_a_table_whose_err_is_all_zero_reports_no_growth():
    # a new generator line changes the bytes but no row; no old err is nonzero,
    # so there is no err growth to take a median of
    new = VACUUM.replace("0.1.0", "0.2.0")
    report, failed = record_cli._compare_table(record_cli._table(VACUUM), record_cli._table(new))
    assert not failed
    assert "0/2 rows changed" in report and "err 0 before" in report and "lines outside the table differ" in report


def test_a_move_beyond_the_summed_err_fails():
    old = "z,e2,err\n0.5,1.0,1e-10\n"
    report, failed = record_cli._compare_table(record_cli._table(old), record_cli._table("z,e2,err\n0.5,1.0000001,1e-10\n"))
    assert failed and "1/1 rows changed" in report and "err new/old median 1" in report
    report, failed = record_cli._compare_table(record_cli._table(old), record_cli._table("z,e2,err\n0.5,1.00000000005,2e-10\n"))
    assert not failed and "err new/old median 2" in report
