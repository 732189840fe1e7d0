"""Command-line front end: run, determinize, check-det, diff, witness.

Exit codes: 0 = accept / success, 1 = reject / mismatch found,
2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional

from .automata import (AutomatonError, DETERMINISTIC, Ecidpda, RuleIndex,
                       is_deterministic, simulate)
from .constraints import ConstraintError
from .determinize import (determinize_direct, determinize_no_stack_prediction,
                          determinize_untimed, size_bounds)
from .generate import random_automaton, random_timed_string
from .timed import TimedStringError, load_timed_string
from .witness import (WitnessError, build_well_formed, build_witness_nfa,
                      enumerate_specs, is_valid, load_witness_spec)

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2

# An error message quotes the offending input, which can be arbitrarily long.
MAX_ERROR_CHARS = 300

# The witness NFA's determinization for n = 3 did not finish; every n <= 2
# compile measured took at most a few seconds.
MAX_WITNESS_N = 2

_MODES = {
    "untimed": determinize_untimed,
    "direct": determinize_direct,
    "nostackpred": determinize_no_stack_prediction,
}


# bench/workloads.py imports this private name; the next change to the
# benchmark re-points that import at determinize.size_bounds.
_theoretical_bounds = size_bounds


def cmd_run(args) -> int:
    automaton = Ecidpda.load(args.automaton)
    w = load_timed_string(args.string)
    started = time.perf_counter()
    result = simulate(automaton, w)
    elapsed = time.perf_counter() - started
    for pos, configs in enumerate(result.trace):
        states = sorted({q for q, _ in configs})
        heights = sorted({len(st) for _, st in configs})
        height = heights[0] if heights else "-"
        print(f"  step {pos}: states={{{','.join(states)}}} "
              f"stack_height={height}")
    verdict = "ACCEPT" if result.accepted else "REJECT"
    print(f"{verdict} ({len(w)} events, {elapsed:.4f}s)")
    return EXIT_ACCEPT if result.accepted else EXIT_REJECT


def cmd_determinize(args) -> int:
    source = Ecidpda.load(args.automaton)
    build = _MODES[args.mode]
    result = build(source)
    result.save(args.output)
    state_bound, stack_bound = size_bounds(source, args.mode)
    guards = {str(rule.guard) for rule in result.rules}
    report = {
        "mode": args.mode,
        "source": {"states": len(source.states),
                   "stack": len(source.stack),
                   "atoms": len(source.atom_set())},
        "output": {"states": len(result.states),
                   "stack": len(result.stack),
                   "guards": len(guards)},
        "bounds": {"states": state_bound, "stack": stack_bound,
                   "within": (len(result.states) <= state_bound
                              and len(result.stack) <= stack_bound)},
    }
    print(json.dumps(report, indent=2))
    if not report["bounds"]["within"]:
        return EXIT_REJECT
    return EXIT_ACCEPT


def cmd_check_det(args) -> int:
    automaton = Ecidpda.load(args.automaton)
    verdict = is_deterministic(automaton)
    if verdict == DETERMINISTIC:
        print("deterministic")
        return EXIT_ACCEPT
    print(f"nondeterministic: {verdict.reason}")
    for rule in verdict.rules:
        print(f"  {rule}")
    return EXIT_REJECT


def cmd_diff(args) -> int:
    for flag, least in (("trials", 1), ("strings", 1), ("max_states", 1),
                        ("max_stack", 1), ("max_atoms", 0), ("max_len", 0)):
        if getattr(args, flag) < least:
            print(f"--{flag.replace('_', '-')} must be at least {least}",
                  file=sys.stderr)
            return EXIT_ERROR
    build = _MODES[args.mode]
    master = random.Random(args.seed)
    mismatches = []
    for trial in range(args.trials):
        automaton_seed = master.getrandbits(64)
        string_seed = master.getrandbits(64)
        rng = random.Random(automaton_seed)
        source = random_automaton(
            rng, max_states=args.max_states, max_stack=args.max_stack,
            max_atoms=args.max_atoms, timed=(args.mode != "untimed"))
        det = build(source)
        src_index, det_index = RuleIndex(source), RuleIndex(det)
        srng = random.Random(string_seed)
        for _ in range(args.strings):
            w = random_timed_string(srng, source.alphabet,
                                    max_len=args.max_len)
            got_a = simulate(source, w, src_index).accepted
            got_d = simulate(det, w, det_index).accepted
            if got_a != got_d:
                mismatches.append({"automaton_seed": automaton_seed,
                                   "string_seed": string_seed,
                                   "source": got_a, "determinized": got_d})
    report = {"mode": args.mode, "trials": args.trials,
              "strings_per_trial": args.strings, "seed": args.seed,
              "mismatches": sorted(mismatches,
                                   key=lambda m: m["automaton_seed"])}
    print(json.dumps(report, indent=2))
    return EXIT_ACCEPT if not mismatches else EXIT_REJECT


def cmd_witness(args) -> int:
    # Every flag is checked before the determinization, whose size is
    # exponential in n and k.
    if args.exhaustive and (args.k > 2 or args.m > 2):
        print("exhaustive mode is limited to k <= 2, m <= 2",
              file=sys.stderr)
        return EXIT_ERROR
    if args.spec:
        spec = load_witness_spec(args.spec)
        if (spec.n, spec.k) != (args.n, args.k):
            print(f"the spec has n={spec.n}, k={spec.k} but "
                  f"--n {args.n} --k {args.k} was given", file=sys.stderr)
            return EXIT_ERROR
    elif not args.exhaustive:
        print("pass --spec FILE or --exhaustive", file=sys.stderr)
        return EXIT_ERROR
    if args.n > MAX_WITNESS_N:
        print(f"witness checks are limited to n <= {MAX_WITNESS_N}: the "
              f"n = 3 determinization does not finish", file=sys.stderr)
        return EXIT_ERROR
    specs = ([spec] if args.spec
             else list(enumerate_specs(args.n, args.k, args.m)))
    nfa = build_witness_nfa(args.n, args.k)
    if args.nfa_out:
        nfa.save(args.nfa_out)
    det = determinize_direct(nfa)
    nfa_index, det_index = RuleIndex(nfa), RuleIndex(det)
    disagreements = 0

    print(f"{'spec':<50} {'valid':<6} {'nfa':<6} {'det':<6}")
    checked = 0
    for spec in specs:
        w = build_well_formed(spec)
        expected = is_valid(spec)
        got_nfa = simulate(nfa, w, nfa_index).accepted
        got_det = simulate(det, w, det_index).accepted
        checked += 1
        label = json.dumps(spec.to_json(), separators=(",", ":"))
        if expected != got_nfa or expected != got_det or args.spec:
            print(f"{label:<50} {expected!s:<6} {got_nfa!s:<6} {got_det!s:<6}")
        if expected != got_nfa or expected != got_det:
            disagreements += 1
    print(f"checked {checked} specs, {disagreements} disagreements")
    return EXIT_ACCEPT if disagreements == 0 else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecidpda",
        description="Event-clock input-driven pushdown automata toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate an automaton on a string")
    p_run.add_argument("automaton")
    p_run.add_argument("string")
    p_run.set_defaults(func=cmd_run)

    p_det = sub.add_parser("determinize", help="determinize an automaton")
    p_det.add_argument("automaton")
    p_det.add_argument("--mode", choices=sorted(_MODES), required=True)
    p_det.add_argument("--output", "-o", required=True)
    p_det.set_defaults(func=cmd_determinize)

    p_chk = sub.add_parser("check-det", help="check determinism")
    p_chk.add_argument("automaton")
    p_chk.set_defaults(func=cmd_check_det)

    p_diff = sub.add_parser("diff",
                            help="randomized differential determinization test")
    p_diff.add_argument("--mode", choices=sorted(_MODES), required=True)
    p_diff.add_argument("--trials", type=int, default=100)
    p_diff.add_argument("--strings", type=int, default=20)
    p_diff.add_argument("--seed", type=int, default=0)
    p_diff.add_argument("--max-states", type=int, default=3)
    p_diff.add_argument("--max-stack", type=int, default=2)
    p_diff.add_argument("--max-atoms", type=int, default=3)
    p_diff.add_argument("--max-len", type=int, default=12)
    p_diff.set_defaults(func=cmd_diff)

    p_wit = sub.add_parser("witness",
                           help="lower-bound witness family verification")
    p_wit.add_argument("--n", type=int, required=True)
    p_wit.add_argument("--k", type=int, required=True)
    p_wit.add_argument("--m", type=int, default=1)
    p_wit.add_argument("--exhaustive", action="store_true")
    p_wit.add_argument("--spec")
    p_wit.add_argument("--nfa-out")
    p_wit.set_defaults(func=cmd_witness)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (AutomatonError, ConstraintError, TimedStringError, WitnessError,
            OSError, json.JSONDecodeError, KeyError) as exc:
        text = str(exc)
        if len(text) > MAX_ERROR_CHARS:
            text = (f"{text[:MAX_ERROR_CHARS]}... "
                    f"({len(text) - MAX_ERROR_CHARS} more characters)")
        print(f"error: {text}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
