"""Smoke test of ``scripts/ab_timing.py``: the package's tree timed against
itself, at the smallest size that runs every workload."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_timing.py"


def test_a_tree_against_itself_prints_every_workload():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), src, src, "--paths", "2", "--rounds", "2"],
        capture_output=True, text=True, check=True,
    )
    rows = [line.rsplit(maxsplit=4) for line in run.stdout.splitlines()[1:]]
    schemes = ("taylor-delta", "exp-euler", "milstein-b0", "full-2nd")
    pieces = [f"{piece} {name}" for name in schemes for piece in ("steps", "op")]
    assert [row[0] for row in rows] == ["reference", *pieces, "ladder", "symbolic"]
    for _, parent, change, ratio, won in rows:
        assert float(parent) > 0 and float(change) > 0 and float(ratio) > 0
        assert won in ("0/2", "1/2", "2/2")


def test_rows_runs_only_the_named_rows():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), src, src, "--paths", "1", "--rounds", "1",
         "--rows", "symbolic, steps exp-euler"],
        capture_output=True, text=True, check=True,
    )
    rows = [line.rsplit(maxsplit=4)[0] for line in run.stdout.splitlines()[1:]]
    assert rows == ["symbolic", "steps exp-euler"]


def test_an_unknown_row_is_an_error():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), src, src, "--rows", "symbolic,bogus"],
        capture_output=True, text=True,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert "unknown rows ['bogus']" in run.stderr
