"""The three determinization constructions and the pair-set oracle."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ecidpda.determinize as determinize_module
from ecidpda import (AutomatonError, DETERMINISTIC, Ecidpda, InternalRule,
                     TRUE, atom, atoms, desugar, determinize_direct,
                     determinize_no_stack_prediction, determinize_untimed,
                     build_witness_nfa, embed_untimed, is_deterministic,
                     pair_semantics_oracle, simulate, stack_pred)
from ecidpda.automata import RuleIndex
from ecidpda.determinize import (pair_set_name, parse_pair_set_name,
                                 parse_survivor_name)
from ecidpda.generate import random_automaton, random_timed_string
from ecidpda.timed import ClockKind

from .conftest import timed

MODES = {
    "untimed": determinize_untimed,
    "direct": determinize_direct,
    "nostackpred": determinize_no_stack_prediction,
}


def campaign(mode: str, seed: int, automata: int, strings: int,
             **gen_kwargs) -> None:
    """Language-equivalence sampling: det(a) and a must agree everywhere."""
    construct = MODES[mode]
    rng = random.Random(seed)
    for _ in range(automata):
        a = random_automaton(rng, timed=(mode != "untimed"), **gen_kwargs)
        det = construct(a)
        assert is_deterministic(det) == DETERMINISTIC
        src_index, det_index = RuleIndex(a), RuleIndex(det)
        for _ in range(strings):
            w = random_timed_string(rng, a.alphabet)
            want = simulate(a, w, index=src_index).accepted
            got = simulate(det, w, index=det_index)
            assert got.accepted == want, (a.to_json(), w.to_json())
            # Determinism shows up dynamically too: at most one live config.
            for configs in got.trace:
                assert len(configs) <= 1


class TestUntimed:
    def test_equivalence_sampled(self):
        campaign("untimed", seed=100, automata=60, strings=15,
                 max_states=4, max_stack=2)

    def test_rejects_timed_guards(self, bracket_alphabet):
        a = Ecidpda(bracket_alphabet, ["q0"], ["q0"], ["q0"], [], [
            InternalRule("q0", "c", desugar("<", stack_pred(), 1), "q0")])
        with pytest.raises(AutomatonError):
            determinize_untimed(a)

    def test_independent_of_determinize_direct(self, monkeypatch):
        # A call through the module attribute would nest the traced spans.
        a = random_automaton(random.Random(102), timed=False)
        want = determinize_untimed(a)

        def refuse(_a):
            raise AssertionError("determinize_direct must not be called")

        monkeypatch.setattr(determinize_module, "determinize_direct", refuse)
        assert determinize_module.determinize_untimed(a) == want

    def test_initial_state_is_identity_diagonal(self, bracket_alphabet):
        a = embed_untimed(["q0", "q1"], ["q0", "q1"], ["q1"], [],
                          bracket_alphabet)
        det = determinize_untimed(a)
        (start,) = det.initial
        assert parse_pair_set_name(start) == frozenset(
            [("q0", "q0"), ("q1", "q1")])

    def test_state_bound(self):
        rng = random.Random(101)
        for _ in range(40):
            a = random_automaton(rng, timed=False, max_states=4)
            det = determinize_untimed(a)
            n = len(a.states)
            assert len(det.states) <= 2 ** (n * n)
            assert len(det.stack) <= len(a.alphabet.calls) * 2 ** (n * n)


class TestDirect:
    def test_equivalence_sampled(self):
        campaign("direct", seed=200, automata=50, strings=15)

    def test_state_and_stack_bounds(self):
        rng = random.Random(201)
        for _ in range(30):
            a = random_automaton(rng)
            det = determinize_direct(a)
            n, k = len(a.states), len(a.atom_set())
            assert len(det.states) <= 2 ** (n * n)
            assert len(det.stack) <= len(a.alphabet.calls) * 2 ** (n * n + k)

    def test_matches_untimed_on_trivial_guards(self):
        rng = random.Random(202)
        for _ in range(25):
            a = random_automaton(rng, timed=False)
            assert determinize_untimed(a) == determinize_direct(a)


class TestNoStackPrediction:
    def test_equivalence_sampled(self):
        campaign("nostackpred", seed=300, automata=50, strings=15)

    def test_output_never_reads_stack_prediction(self):
        rng = random.Random(301)
        seen_sp_input = 0
        for _ in range(40):
            a = random_automaton(rng)
            if any(at.clock.kind is ClockKind.STACK_PREDICTION
                   for at in a.atom_set()):
                seen_sp_input += 1
            det = determinize_no_stack_prediction(a)
            for at in det.atom_set():
                assert at.clock.kind is not ClockKind.STACK_PREDICTION
        assert seen_sp_input > 0  # the property was actually exercised

    def test_unmatched_bracket_prediction_guard(self, bracket_alphabet):
        # A call whose guard predicts a matching return within one time unit
        # can never fire on an unmatched bracket; the determinized automaton
        # must agree without ever consulting the prediction clock itself.
        from ecidpda import CallRule, ReturnRule
        a = Ecidpda(bracket_alphabet, ["q0", "q1", "q2"], ["q0"], ["q2"],
                    ["g"], [
            CallRule("q0", "<", desugar("<", stack_pred(), 1), "q1", "g"),
            ReturnRule("q1", ">", "g", TRUE, "q2"),
        ])
        det = determinize_no_stack_prediction(a)
        fast = timed(bracket_alphabet, "< >")  # gap 1: not < 1
        assert not simulate(a, fast).accepted
        assert not simulate(det, fast).accepted
        import fractions
        from ecidpda import TimedString
        F = fractions.Fraction
        close = TimedString(bracket_alphabet, [("<", F(1)), (">", F(3, 2))])
        assert simulate(a, close).accepted
        assert simulate(det, close).accepted
        lone = timed(bracket_alphabet, "<")
        assert not simulate(det, lone).accepted

    def test_bounds(self):
        rng = random.Random(302)
        for _ in range(30):
            a = random_automaton(rng)
            det = determinize_no_stack_prediction(a)
            n, k = len(a.states), len(a.atom_set())
            assert len(det.states) <= 2 ** (n * n) * 2 ** n
            assert (len(det.stack)
                    <= len(a.alphabet.calls) * 2 ** (n * n) * 2 ** n * 2 ** k)

    def test_survivor_component_parses(self):
        rng = random.Random(303)
        a = random_automaton(rng)
        det = determinize_no_stack_prediction(a)
        for name in det.states:
            assert parse_survivor_name(name) <= frozenset(a.states)


class TestPairOracle:
    def test_empty_prefix_is_initial_diagonal(self, bracket_alphabet):
        a = embed_untimed(["q0", "q1"], ["q0"], ["q1"], [], bracket_alphabet)
        w = timed(bracket_alphabet, "c")
        assert pair_semantics_oracle(a, w, 0) == frozenset([("q0", "q0")])

    def test_unmatched_call_resets_anchor(self, bracket_alphabet):
        a = embed_untimed(
            ["q0", "q1"], ["q0"], ["q1"], ["g"], bracket_alphabet,
            calls=[("q0", "<", "q1", "g")])
        w = timed(bracket_alphabet, "<")
        # After an unmatched call the well-nested suffix is empty, so the
        # anchor collapses onto the current state.
        assert pair_semantics_oracle(a, w, 1) == frozenset([("q1", "q1")])

    def test_matches_untimed_construction(self, bracket_alphabet):
        rng = random.Random(400)
        for _ in range(25):
            a = random_automaton(rng, timed=False)
            det = determinize_untimed(a)
            det_index = RuleIndex(det)
            for _ in range(8):
                w = random_timed_string(rng, a.alphabet)
                result = simulate(det, w, index=det_index)
                for i, configs in enumerate(result.trace):
                    want = pair_semantics_oracle(a, w, i)
                    if not configs:
                        assert not want
                        continue
                    ((state, _stack),) = configs
                    assert parse_pair_set_name(state) == want, (i, w.symbols)


# (n, k) -> (states, stack symbols, rules, eval_under calls) of the witness
# NFA's determinization; both timed constructions give the same figures.
WITNESS_OUTPUTS = {
    (1, 2): (7, 35, 530, 144),
    (2, 1): (131, 115, 5_965, 59),
    (1, 3): (7, 185, 11_036, 788),
    (2, 2): (131, 805, 164_132, 289),
}


class TestWitnessOutputs:
    @pytest.mark.parametrize("mode", ["direct", "nostackpred"])
    @pytest.mark.parametrize("nk", list(WITNESS_OUTPUTS),
                             ids=lambda nk: "%d-%d" % nk)
    def test_sizes_and_guard_evaluations(self, nk, mode, monkeypatch):
        # The source tables evaluate each guard once per truth set, however
        # often a step is consulted; the count shows it.
        calls = []
        real = determinize_module.eval_under

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(determinize_module, "eval_under", counting)
        det = MODES[mode](build_witness_nfa(*nk))
        assert (len(det.states), len(det.stack), len(det.rules),
                len(calls)) == WITNESS_OUTPUTS[nk]


def _digest(det: Ecidpda) -> str:
    """sha256 of the whole output's compact JSON: names and rule order too."""
    text = json.dumps(det.to_json(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutputs:
    """Exact outputs, pinned so that a refactor of the constructions shows
    any change of a name, a rule or the rule order."""

    @pytest.mark.parametrize("mode, want", [
        ("direct",
         "37e35f4c41fd42a1681c43d2f6b5c4e1b2ca815f2001d8495f0707aee6af7083"),
        ("nostackpred",
         "c7da7df87bb3826f7399c991471d52c0c3f207fd054696832a12210c1f4d514f"),
    ])
    def test_witness_2_1(self, mode, want):
        assert _digest(MODES[mode](build_witness_nfa(2, 1))) == want

    def test_random_draws(self):
        rng = random.Random(0)
        digests = []
        for i in range(300):
            mode = ("untimed", "direct", "nostackpred")[i % 3]
            a = random_automaton(rng, max_states=2, max_stack=2, max_atoms=2,
                                 timed=(mode != "untimed"))
            digests.append(_digest(MODES[mode](a)))
        assert hashlib.sha256("".join(digests).encode()).hexdigest() == (
            "0de8405dc963fa2ce8cbc1c09a04e5705a6df23998ceb69ccda0d394d8bc44ba")


_HASH_SEED_SCRIPT = """
import json, random, sys
from ecidpda import (build_witness_nfa, determinize_direct,
                     determinize_no_stack_prediction)
from ecidpda.generate import random_automaton
outputs = [determinize_direct(build_witness_nfa(2, 1)).to_json()]
rng = random.Random(0)
for _ in range(100):
    a = random_automaton(rng, max_states=2, max_stack=2, max_atoms=2)
    outputs.append(determinize_no_stack_prediction(a).to_json())
json.dump(outputs, sys.stdout)
"""


def test_output_independent_of_hash_seed():
    src = str(Path(determinize_module.__file__).resolve().parent.parent)
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs.append(subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT], env=env,
            capture_output=True, check=True, timeout=300).stdout)
    assert runs[0] == runs[1]


class TestNames:
    def test_pair_set_round_trip(self):
        pairs = frozenset([("q0", "q1"), ("q2", "q0")])
        assert parse_pair_set_name(pair_set_name(pairs)) == pairs

    def test_empty_pair_set(self):
        assert parse_pair_set_name(pair_set_name(frozenset())) == frozenset()

    @pytest.mark.parametrize("mode", ["direct", "nostackpred"])
    def test_output_names_are_sorted(self, mode):
        # The witness NFA's state names sort differently from the order it
        # lists them in; output names must still list pairs and survivors
        # in pair_set_name's sorted order.
        det = MODES[mode](build_witness_nfa(2, 1))
        for name in det.states:
            assert name.split("|")[0] == pair_set_name(
                parse_pair_set_name(name))
            if mode == "nostackpred":
                survivors = sorted(parse_survivor_name(name))
                assert name.endswith(f"|R{{{','.join(survivors)}}}")
