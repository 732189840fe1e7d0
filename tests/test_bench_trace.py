"""Smoke test of the benchmark's traced run.

The tracer wraps module attributes from outside the library.  A refactor
that stops calling through one of them would make its layer read 0, which
looks like a speed-up; this test fails instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_monitor_run_sees_the_clock_layers():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monitor",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["timed.compute_matching.calls"]["value"] > 0
    assert metrics["timed.clock_value.calls"]["value"] > 0
