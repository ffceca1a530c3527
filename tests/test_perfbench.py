"""One traced pass of each benchmark workload against the current library.
perfbench reads keys of the CLI output (for `laurent`, `nodes` and `radius`;
for `certify`, `grid_covers_bound`) and checks every job's result; a change
that drops a key or breaks a check marks jobs failed, which this test sees
before a benchmark run does.  The harness runs in a subprocess, so its BLAS
thread settings stay out of the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["resonances", "certify", "bound-states"])
def test_perfbench_pass_is_correct(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
