"""Steadiness check: do two sets of runs of the same code agree?

    python3 bench/steady.py

Run from the root of a source checkout.  Reads BENCHMARK.json, then runs the
benchmark command with tracing off, one process at a time, once per set,
workload and seed.  The two sets are interleaved seed by seed, alternating
which set goes first, so that a drift in the host's speed reaches both sets
alike.

For every end-to-end metric and workload it reports, per set, the median and
the interquartile range over the seeds as a share of the median
(statistics.quantiles with n=4), and the run-to-run noise: the median over
seeds of the difference between the two sets' runs of that seed, as a share
of their mean.  A workload agrees when every run passed its checks, each
spread except that of setup_s is within the metric's bound, the two sets'
medians differ by no more than the bound, and every count repeats exactly
seed by seed.  Exits 0 when every workload agrees, 1 otherwise; the raw
results go to bench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    raw = {name: [[] for _ in range(SETS)] for name in names}
    for i, seed in enumerate(SEEDS):
        for name in names:
            order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
            for s in order:
                result = run_once(spec, name, seed)
                raw[name][s].append(result)
                print(f"seed {seed} {name} set {s + 1}: correct "
                      f"{result['correct']}", file=sys.stderr, flush=True)

    all_ok = True
    for name in names:
        print(f"\n{name}")
        print(f"  {'metric':<22}" + "".join(
            f"{'set ' + str(s + 1) + ' median':>16}{'iqr/med':>9}"
            for s in range(SETS)) + f"{'noise':>8}{'bound':>7}  verdict")
        ok = all(r["correct"] for runs in raw[name] for r in runs)
        for m in spec["end_to_end"]:
            values = [[r["metrics"][m["name"]]["value"] for r in runs]
                      for runs in raw[name]]
            stats = [spread(v) for v in values]
            noise = statistics.median(abs(a - b) / ((a + b) / 2) if a + b
                                      else 0.0 for a, b in zip(*values))
            problems = []
            if m["name"] != "setup_s" and any(sp > m["bound"]
                                              for _, sp in stats):
                problems.append("spread")
            first = stats[0][0]
            if any(abs(med - first) > m["bound"] * first
                   for med, _ in stats[1:]):
                problems.append("median moved")
            if m["unit"] == "count" and any(len(set(v)) > 1
                                            for v in zip(*values)):
                problems.append("count differs")
            ok &= not problems
            print(f"  {m['name']:<22}" + "".join(
                f"{med:>16.6g}{sp:>9.3f}" for med, sp in stats)
                + f"{noise:>8.3f}{m['bound']:>7}  "
                + (", ".join(problems) or "ok"))
        print(f"  {name}: {'agrees' if ok else 'DOES NOT AGREE'}")
        all_ok &= ok

    out = ROOT / "bench" / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
