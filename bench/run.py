"""Benchmark for the ecidpda library: one workload per process, one caller.

    python3 bench/run.py --workload monitor --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Every input is generated from `--seed` during set-up, which is
repeated `SETUP_REPEATS` times and reported as its median.  The measured
loop then runs whole rounds back to back (a closed loop) until `--seconds`
have passed, checking every verdict.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones, taken from one traced set-up plus first pass of rounds, with spans
around the program's public functions (see tracing.py), and
`trace.overhead_ratio` compares it with the same work untraced.  The lines
before it report the inputs' properties.  The exit code is 0 when the run
completed, whether or not every check passed (see "correct").
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def latency_summary(samples: list[float], tail: int | None
                    ) -> tuple[float, float, int]:
    """Median, the `tail` percentile (nearest rank; None: the maximum) and
    the number of samples beyond that percentile."""
    xs = sorted(samples)
    n = len(xs)
    median = xs[(n + 1) // 2 - 1]
    rank = n if tail is None else -(-tail * n // 100)
    return median, xs[rank - 1], n - rank


def quantiles_text(values, qs=(10, 50, 90)) -> str:
    xs = sorted(values)
    if not xs:
        return "none"
    picks = [f"p{q} {xs[max(0, -(-q * len(xs) // 100) - 1)]}" for q in qs]
    return ", ".join(picks + [f"max {xs[-1]}"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, inputs, seconds: float, tally) -> tuple[float, int]:
    """Whole rounds back to back until `seconds` have passed and the first
    pass is done.  Returns the wall time and the number of rounds."""
    first_pass = workload.first_pass(inputs)
    started = perf_counter()
    r = 0
    while True:
        workload.round(inputs, r, tally)
        r += 1
        wall = perf_counter() - started
        if r >= first_pass and wall >= seconds:
            return wall, r


def end_to_end(tally, tails: dict, wall: float, setup_s: float) -> dict:
    """The end-to-end metrics of a measured run.  A fixed tail percentile
    with fewer than TAIL_BEYOND samples beyond it is a failed check."""
    latency = {}
    for what, samples in (("simulate", tally.simulate_s),
                          ("determinize", tally.determinize_s)):
        p50, tail, beyond = latency_summary(samples, tails[what])
        if tails[what] is not None:
            tally.check(beyond >= TAIL_BEYOND,
                        f"{what}_tail_ms: p{tails[what]} of {len(samples)} "
                        f"samples has only {beyond} beyond it")
        latency[what] = (p50 * 1e3, tail * 1e3)
        label = "max" if tails[what] is None else f"p{tails[what]}"
        print(f"{what}_tail_ms is {label} of {len(samples)} samples")
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (tally.verdicts / wall, "1/s"),
        "events_per_s": (tally.events / sum(tally.simulate_s), "1/s"),
        "simulate_p50_ms": (latency["simulate"][0], "ms"),
        "simulate_tail_ms": (latency["simulate"][1], "ms"),
        "determinize_p50_ms": (latency["determinize"][0], "ms"),
        "determinize_tail_ms": (latency["determinize"][1], "ms"),
        "det_states": (sum(s for s, _, _ in tally.det_sizes), "count"),
        "det_stack": (sum(g for _, g, _ in tally.det_sizes), "count"),
        "det_rules": (sum(r for _, _, r in tally.det_sizes), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# Per-layer spans: (layer name, owner, attribute). A function imported by
# name into another module is wrapped where its callers look it up.
def layer_targets():
    from ecidpda import automata, constraints, determinize, timed, witness
    return [
        ("timed.clock_value", constraints, "clock_value"),
        ("timed.compute_matching", timed, "compute_matching"),
        ("constraints.evaluate", automata, "evaluate"),
        ("constraints.eval_under", constraints, "eval_under"),
        ("constraints.eval_under", determinize, "eval_under"),
        ("constraints.mutually_exclusive", automata, "mutually_exclusive"),
        ("determinize.untimed", determinize, "determinize_untimed"),
        ("determinize.direct", determinize, "determinize_direct"),
        ("determinize.nostackpred", determinize,
         "determinize_no_stack_prediction"),
        ("automata.is_deterministic", automata, "is_deterministic"),
        ("automata.simulate", automata, "simulate"),
        ("automata.step", automata.RuleIndex, "step"),
        ("automata.RuleIndex", automata.RuleIndex, "__init__"),
        ("witness.build_witness_nfa", witness, "build_witness_nfa"),
        ("witness.build_well_formed", witness, "build_well_formed"),
    ]


PER_LAYER_SPANS = [
    ("timed.clock_value", ("calls", "self_s")),
    ("timed.compute_matching", ("calls", "self_s")),
    ("constraints.evaluate", ("calls", "self_s")),
    ("constraints.eval_under", ("calls", "self_s")),
    ("determinize.untimed", ("calls", "self_s")),
    ("determinize.direct", ("calls", "self_s")),
    ("determinize.nostackpred", ("calls", "self_s")),
    ("constraints.mutually_exclusive", ("calls", "self_s")),
    ("automata.is_deterministic", ("calls", "self_s")),
    ("automata.simulate", ("calls", "self_s")),
    ("automata.step", ("calls", "self_s")),
    ("automata.RuleIndex", ("self_s",)),
    ("witness.build_witness_nfa", ("self_s",)),
    ("witness.build_well_formed", ("calls", "self_s")),
]


def traced_unit(workload, seed: int, tally, tracer=None):
    """One set-up plus the first pass of rounds; returns its wall time and
    the inputs."""
    from ecidpda import timed
    timed.compute_matching.cache_clear()
    if tracer is not None:
        for name, owner, attr in layer_targets():
            tracer.wrap(owner, attr, name)
    started = perf_counter()
    try:
        inputs = workload.setup(seed, tally)
        for r in range(workload.first_pass(inputs)):
            workload.round(inputs, r, tally)
    finally:
        wall = perf_counter() - started
        if tracer is not None:
            tracer.restore()
    return wall, inputs


def per_layer(workload, name: str, seed: int, tally):
    """Per-layer metrics from a traced unit of work, and its inputs.  The
    same unit run untraced before it, after an untimed warm-up unit, gives
    the overhead; its checks count too."""
    from ecidpda import timed
    from tracing import Tracer
    traced_unit(workload, seed, type(tally)())
    untraced = type(tally)()
    untraced_s, _ = traced_unit(workload, seed, untraced)
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.errors += untraced.errors
    tracer = Tracer()
    traced_s, inputs = traced_unit(workload, seed, tally, tracer)
    info = timed.compute_matching.cache_info()
    tracer.write(Path(__file__).resolve().parent / "out"
                 / f"{name}-spans.bin")
    layers = tracer.summary()
    metrics = {}
    for layer, fields in PER_LAYER_SPANS:
        row = layers.get(layer, {"calls": 0, "self_s": 0.0})
        for f in fields:
            metrics[f"{layer}.{f}"] = (row[f], "count" if f == "calls"
                                       else "s")
        if layer == "timed.compute_matching":
            lookups = info.hits + info.misses
            metrics[f"{layer}.hit_ratio"] = (
                info.hits / lookups if lookups else 0.0, "ratio")
    det_s = sum(layers.get(f"determinize.{m}", {"total_s": 0.0})["total_s"]
                for m in ("untimed", "direct", "nostackpred"))
    rules = sum(r for _, _, r in tally.det_sizes)
    metrics["determinize.rules_per_s"] = (rules / det_s if det_s else 0.0,
                                          "1/s")
    metrics["automata.live_ratio"] = (
        tally.live_positions / tally.positions if tally.positions else 0.0,
        "ratio")
    metrics["automata.configs_per_step"] = (
        tally.configs / tally.positions if tally.positions else 0.0,
        "configs/step")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    print(f"traced unit: {traced_s:.3f} s traced, {untraced_s:.3f} s "
          f"untraced, {len(tracer.layer)} spans")
    return metrics, inputs


def report_inputs(inputs, tally) -> None:
    from ecidpda.timed import ClockKind
    kinds = {kind: 0 for kind in ClockKind}
    for a in inputs.sources:
        for atom in a.atom_set():
            kinds[atom.clock.kind] += 1
    total_atoms = sum(kinds.values()) or 1
    rules = [r for _, _, r in tally.det_sizes]
    print(f"inputs: string length {quantiles_text(tally.lengths)}; "
          f"max nesting depth {tally.max_depth}")
    print("guard atoms by clock kind: " + ", ".join(
        f"{kind.value} {kinds[kind] / total_atoms:.1%}" for kind in ClockKind)
        + f" (of {sum(kinds.values())} atoms in {len(inputs.sources)} "
          f"source automata)")
    live = tally.live_positions / tally.positions if tally.positions else 0
    print(f"automata.live_ratio {live:.4f}; configurations per position "
          f"{tally.configs / max(1, tally.positions):.3f}; accepted "
          f"{tally.accepted / max(1, tally.verdicts):.1%} of "
          f"{tally.verdicts} verdicts")
    print(f"determinization output rules: {quantiles_text(rules, (50, 90, 99))}"
          f" over {len(rules)} counted determinizations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ecidpda" / "__init__.py").is_file():
        print(f"error: no ecidpda sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Tally
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    tally = Tally()
    print(f"workload {args.workload}: closed loop, 1 caller, seed "
          f"{args.seed}, trace {args.trace}")
    if args.trace:
        results, inputs = per_layer(workload, args.workload, args.seed,
                                    tally)
    else:
        # An untimed first set-up grows the heap, so that the timed ones do
        # not differ by how many fresh pages each has to fault in.
        inputs = workload.setup(args.seed, Tally())
        setup_times = []
        for _ in range(SETUP_REPEATS):
            inputs = None   # each set-up starts without the last one's inputs
            started = perf_counter()
            inputs = workload.setup(args.seed, tally)
            setup_times.append(perf_counter() - started)
        wall, rounds = measure(workload, inputs, args.seconds, tally)
        print(f"measured {wall:.2f} s, {rounds} rounds; set-up "
              + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
        results = end_to_end(tally, workload.tails, wall,
                             statistics.median(setup_times))
    report_inputs(inputs, tally)
    mismatch = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"mismatch_rate {mismatch:.6f} ({tally.failed} of "
          f"{tally.attempted} checks failed)")
    for what in tally.errors[:5]:
        print(f"  failed: {what}")
    for key, (value, unit) in results.items():
        print(f"  {key:<36} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
