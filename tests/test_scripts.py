import os
import subprocess
import sys
from pathlib import Path

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
