"""Smoke tests of the benchmark's traced run.

The tracer wraps module attributes from outside the library.  A refactor
that stops calling through one of them would make its layer read 0, which
looks like a speed-up; one that calls a wrapped function through another
would count it twice.  These tests fail instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_metrics(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return result["metrics"]


def test_traced_monitor_run_sees_the_clock_layers():
    metrics = traced_metrics("monitor")
    assert metrics["timed.compute_matching.calls"]["value"] > 0
    assert metrics["timed.clock_value.calls"]["value"] > 0
    # Simulation evaluates atoms only, so every evaluate call is one read.
    assert (metrics["constraints.evaluate.calls"]["value"]
            == metrics["timed.clock_value.calls"]["value"])


def test_traced_campaign_run_counts_each_construction_once():
    # The traced unit runs each construction on its 2000 draws exactly once.
    metrics = traced_metrics("campaign")
    for layer in ("untimed", "direct", "nostackpred"):
        assert metrics[f"determinize.{layer}.calls"]["value"] == 2000


def test_traced_witness_run_sees_the_determinization_layers():
    metrics = traced_metrics("witness")
    assert metrics["determinize.direct.calls"]["value"] > 0
    assert metrics["constraints.eval_under.calls"]["value"] > 0
