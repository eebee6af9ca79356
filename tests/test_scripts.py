import os
import subprocess
import sys
from pathlib import Path

import pytest

from germcalc.residue import FAILURE_COEFF_LIMIT

ROOT = Path(__file__).resolve().parents[1]


def test_the_differential_run_exits_quietly_on_a_closed_stdout():
    # as `cli_differential.py ... | head -1` once head has gone: every
    # write to the pipe fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "cli_differential.py"),
             "--old", str(ROOT / "src"), "--new", str(ROOT / "src"), "--files", "3"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0  # one tree against itself: nothing differs


@pytest.mark.parametrize("args", [["--max-den", "1"], ["--max-den", "0"],
                                  ["--r", "1"], ["--r", "0"]])
def test_the_failure_scan_refuses_an_argument_below_two(args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "failure_scan.py"), *args],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: failure_scan.py")
    assert f"argument {args[0]}: {args[1]} is below 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_the_failure_scan_refuses_more_branches_than_the_search_takes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "failure_scan.py"), "--max-den", "3",
         "--r", str(FAILURE_COEFF_LIMIT + 1)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: failure_scan.py")
    assert (f"argument --r: {FAILURE_COEFF_LIMIT + 1} is above the limit "
            f"{FAILURE_COEFF_LIMIT}") in proc.stderr
    assert "Traceback" not in proc.stderr
