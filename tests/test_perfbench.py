"""One traced `bound-states` pass of the benchmark harness against the current
library.  perfbench reads keys of the CLI output (for `laurent`, `nodes` and
`radius`); a change that drops one marks every job of that command failed,
which this test sees before a benchmark run does.  The harness runs in a
subprocess, so its BLAS thread settings stay out of the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_bound_states_pass_is_correct():
    argv = ["perfbench/run.py", "--workload", "bound-states", "--seed", "1",
            "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
