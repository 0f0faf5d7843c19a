import os
import subprocess
import sys

import pytest

import kjump

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(kjump.__file__))


# script -> (small arguments, a line fragment its output must contain)
RUNS = {
    "theorem1_sweep.py": (["--graphs", "40"], "no violations"),
    "split2_differential.py": (["--trials", "300"], "0 mismatches"),
    "reduction_table.py": (["--kmax", "4"], "satisfiable=yes"),
}


@pytest.mark.parametrize("script", RUNS)
def test_script_runs(script):
    # the scripts call the public API (theorem1_sweep calls simulate_move),
    # so a small run of each guards them against drift
    args, expect = RUNS[script]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
