"""Compliance gate: eight criteria, one printed PASS/FAIL line each.

The differential campaigns are heavy (1000 automata x 100 strings per
construction) and shared between the equivalence, bound, and determinism
criteria through module-scoped fixtures.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from ecidpda import (DETERMINISTIC, And, Or, Not, atom, build_witness_nfa,
                     build_prefix, build_well_formed, clock_value,
                     concat_timed, desugar, determinize_direct,
                     determinize_no_stack_prediction, determinize_untimed,
                     distinguishing_suffix, evaluate, hist, is_deterministic,
                     is_valid, pair_semantics_oracle, pred, simulate,
                     stack_hist, stack_pred)
from ecidpda.automata import RuleIndex
from ecidpda.determinize import parse_pair_set_name, parse_survivor_name
from ecidpda.generate import random_automaton, random_timed_string
from ecidpda.timed import ClockKind, PartitionedAlphabet, TimedString
from ecidpda.witness import (WitnessSpec, enumerate_specs, is_left_total,
                             is_right_total)

F = Fraction

AUTOMATA = 1000
STRINGS = 100
ORACLE_RUNS = 100

_CONSTRUCT = {
    "untimed": determinize_untimed,
    "direct": determinize_direct,
    "nostackpred": determinize_no_stack_prediction,
}


def _report(capsys, num: int, ok: bool, detail: str) -> bool:
    # Bypass capture so one line per criterion always reaches the terminal.
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)
    return ok


def _bounds(mode: str, n: int, k: int, calls: int) -> tuple[int, int]:
    if mode == "untimed":
        return 2 ** (n * n), calls * 2 ** (n * n)
    if mode == "direct":
        return 2 ** (n * n), calls * 2 ** (n * n + k)
    return 2 ** (n * n) * 2 ** n, calls * 2 ** (n * n) * 2 ** n * 2 ** k


def _campaign(mode: str, seed: int, *, automata: int = AUTOMATA,
              strings: int = STRINGS, **gen_kwargs) -> dict:
    construct = _CONSTRUCT[mode]
    rng = random.Random(seed)
    stats = {"automata": automata, "runs": 0, "mismatches": 0,
             "bound_violations": 0, "nondet_outputs": 0, "multi_config": 0,
             "oracle_checked": 0, "oracle_bad": 0, "sp_atoms": 0,
             "seconds": 0.0}
    started = time.perf_counter()
    for idx in range(automata):
        a = random_automaton(rng, timed=(mode != "untimed"), **gen_kwargs)
        det = construct(a)
        state_bound, stack_bound = _bounds(
            mode, len(a.states), len(a.atom_set()),
            max(1, len(a.alphabet.calls)))
        if len(det.states) > state_bound or len(det.stack) > stack_bound:
            stats["bound_violations"] += 1
        if is_deterministic(det) != DETERMINISTIC:
            stats["nondet_outputs"] += 1
        if mode == "nostackpred":
            stats["sp_atoms"] += sum(
                1 for at in det.atom_set()
                if at.clock.kind is ClockKind.STACK_PREDICTION)
        src_index, det_index = RuleIndex(a), RuleIndex(det)
        for s_idx in range(strings):
            w = random_timed_string(rng, a.alphabet)
            src = simulate(a, w, index=src_index)
            got = simulate(det, w, index=det_index)
            stats["runs"] += 1
            if src.accepted != got.accepted:
                stats["mismatches"] += 1
            for configs in got.trace:
                if len(configs) > 1:
                    stats["multi_config"] += 1
            if s_idx == 0 and idx < ORACLE_RUNS:
                if mode == "direct":
                    for i, configs in enumerate(got.trace):
                        stats["oracle_checked"] += 1
                        want = pair_semantics_oracle(a, w, i)
                        have = (parse_pair_set_name(next(iter(configs))[0])
                                if configs else frozenset())
                        if have != want:
                            stats["oracle_bad"] += 1
                elif mode == "nostackpred":
                    stats["oracle_checked"] += 1
                    want = frozenset(q for q, _ in src.final_configs)
                    configs = got.trace[-1]
                    have = (parse_survivor_name(next(iter(configs))[0])
                            if configs else frozenset())
                    if have != want:
                        stats["oracle_bad"] += 1
    stats["seconds"] = time.perf_counter() - started
    return stats


@pytest.fixture(scope="module")
def untimed_stats():
    return _campaign("untimed", seed=11, max_states=4, max_stack=2)


@pytest.fixture(scope="module")
def direct_stats():
    return _campaign("direct", seed=12, max_states=3, max_stack=2,
                     max_atoms=3)


@pytest.fixture(scope="module")
def nostackpred_stats():
    return _campaign("nostackpred", seed=13, max_states=3, max_stack=2,
                     max_atoms=3)


def test_criterion_1_example_clock_values(capsys):
    started = time.perf_counter()
    alphabet = PartitionedAlphabet({"<"}, {">"}, {"c", "d"})
    w = TimedString(alphabet, [
        ("c", F(1, 10)), ("<", F(2, 10)), ("<", F(4, 10)), ("c", F(5, 10)),
        (">", F(7, 10)), (">", F(8, 10)), ("d", F(1)),
    ])
    defined = {
        stack_hist(): F(6, 10), hist("<"): F(4, 10), hist("c"): F(3, 10),
        hist(">"): F(1, 10), pred("d"): F(2, 10),
    }
    undefined = (hist("d"), pred("<"), pred("c"), pred(">"), stack_pred())
    values_ok = (all(clock_value(w, 6, c) == v for c, v in defined.items())
                 and all(clock_value(w, 6, c) is None for c in undefined))
    phi_true = Or(desugar(">", stack_hist(), F(1, 10)),
                  atom(pred("c"), ">=", 0))
    phi_false = And(desugar(">", hist("c"), F(1, 10)),
                    desugar("<", pred("d"), F(2, 10)))
    guards_ok = (evaluate(phi_true, w, 6) is True
                 and evaluate(phi_false, w, 6) is False)
    elapsed = time.perf_counter() - started
    ok = values_ok and guards_ok and elapsed < 1.0
    assert _report(capsys, 1, ok, f"worked example exact in {elapsed:.3f}s")


def test_criterion_2_untimed_equivalence(capsys, untimed_stats):
    s = untimed_stats
    ok = s["mismatches"] == 0 and s["runs"] == AUTOMATA * STRINGS
    assert _report(
        capsys, 2, ok, f"{s['mismatches']} mismatches over {s['runs']} untimed runs "
               f"({s['seconds']:.0f}s)")


def test_criterion_3_direct_equivalence(capsys, direct_stats):
    s = direct_stats
    ok = (s["mismatches"] == 0 and s["runs"] == AUTOMATA * STRINGS
          and s["oracle_bad"] == 0 and s["oracle_checked"] > 0)
    assert _report(
        capsys, 3, ok, f"{s['mismatches']} mismatches over {s['runs']} runs, "
               f"{s['oracle_bad']}/{s['oracle_checked']} pair-set oracle "
               f"deviations ({s['seconds']:.0f}s)")


def test_criterion_4_no_stack_prediction(capsys, nostackpred_stats):
    s = nostackpred_stats
    ok = (s["mismatches"] == 0 and s["runs"] == AUTOMATA * STRINGS
          and s["sp_atoms"] == 0
          and s["oracle_bad"] == 0 and s["oracle_checked"] > 0)
    assert _report(
        capsys, 4, ok, f"{s['mismatches']} mismatches, {s['sp_atoms']} prediction "
               f"atoms in outputs, {s['oracle_bad']}/{s['oracle_checked']} "
               f"survivor-set deviations ({s['seconds']:.0f}s)")


def test_criterion_5_size_bounds(capsys, untimed_stats, direct_stats,
                                 nostackpred_stats):
    total = (untimed_stats["bound_violations"]
             + direct_stats["bound_violations"]
             + nostackpred_stats["bound_violations"])
    ok = total == 0
    assert _report(
        capsys, 5, ok, f"{total} bound violations across "
               f"{3 * AUTOMATA} determinized outputs")


def test_criterion_6_witness_soundness(capsys):
    n, k = 2, 1
    nfa = build_witness_nfa(n, k)
    stack_ok = len(nfa.stack) == n * k
    det = determinize_direct(nfa)
    nfa_index, det_index = RuleIndex(nfa), RuleIndex(det)
    checked = bad = 0
    for m in (1, 2):
        for spec in enumerate_specs(n, k, m):
            w = build_well_formed(spec)
            expected = is_valid(spec)
            checked += 1
            if (simulate(nfa, w, index=nfa_index).accepted != expected
                    or simulate(det, w, index=det_index).accepted
                    != expected):
                bad += 1
    ok = stack_ok and bad == 0
    assert _report(
        capsys, 6, ok, f"{bad}/{checked} checker disagreements, "
               f"stack alphabet size {len(nfa.stack)} (want {n * k})")


def test_criterion_7_separation(capsys):
    n, k, m = 2, 1, 1
    nfa = build_witness_nfa(n, k)
    index = RuleIndex(nfa)
    pairs_pool = list(itertools.product(range(n), repeat=2))
    relations = [frozenset(sub)
                 for size in range(1, len(pairs_pool) + 1)
                 for sub in itertools.combinations(pairs_pool, size)
                 if is_left_total(frozenset(sub), n)
                 and is_right_total(frozenset(sub), n)]
    x_sets = [frozenset(), frozenset({1})]
    specs = [WitnessSpec(n, k, m, (0, 0), (rel,), (xs,), (xs,))
             for rel in relations for xs in x_sets]
    total = separated = 0
    for sp1, sp2 in itertools.combinations(specs, 2):
        if (sp1.relations, sp1.x_sets) == (sp2.relations, sp2.x_sets):
            continue
        if not (all(sp1.x_sets) or all(sp2.x_sets)):
            # Two prefixes whose X sets are empty can never be completed to
            # a valid string, so no suffix separates them; they are
            # equivalent and excluded from the count.
            continue
        total += 1
        w2 = distinguishing_suffix(sp1, sp2)
        v1 = simulate(nfa, concat_timed(build_prefix(sp1), w2),
                      index=index).accepted
        v2 = simulate(nfa, concat_timed(build_prefix(sp2), w2),
                      index=index).accepted
        if v1 != v2:
            separated += 1
    ok = total > 0 and separated == total
    assert _report(capsys, 7, ok, f"{separated}/{total} parameter pairs separated")


def test_criterion_8_determinism_certified(capsys, untimed_stats,
                                            direct_stats, nostackpred_stats):
    nondet = (untimed_stats["nondet_outputs"]
              + direct_stats["nondet_outputs"]
              + nostackpred_stats["nondet_outputs"])
    multi = (untimed_stats["multi_config"] + direct_stats["multi_config"]
             + nostackpred_stats["multi_config"])
    ok = nondet == 0 and multi == 0
    assert _report(
        capsys, 8, ok, f"{nondet} outputs flagged nondeterministic, {multi} "
               f"positions with more than one live configuration")
