"""The three determinization constructions and the pair-set oracle."""

import gc
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
                     build_witness_nfa, embed_untimed, hist, is_deterministic,
                     pair_semantics_oracle, simulate, stack_pred, xi)
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

    def test_no_rule_for_a_clock_below_zero(self, bracket_alphabet):
        # hist(c) <= 0 without hist(c) >= 0 needs a negative clock value.
        le, ge = atom(hist("c"), "<=", 0), atom(hist("c"), ">=", 0)
        a = Ecidpda(bracket_alphabet, ["q0"], ["q0"], ["q0"], [], [
            InternalRule("q0", "c", guard, "q0") for guard in (le, ge, TRUE)])
        det = determinize_direct(a)
        guards = [rule.guard for rule in det.rules if rule.symbol == "c"]
        assert guards == [xi((le, ge), s) for s in (set(), {ge}, {le, ge})]


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

    @pytest.mark.parametrize("mode, want", [
        ("direct",
         "34b44182154b85c0293118e99e559c4eb302860b30d44d031b98befe26126c72"),
        ("nostackpred",
         "a9aa273c1b15f5dba66a70c651830b4afd99602c981e47ed3a9e90f6c81af4fd"),
    ])
    def test_witness_1_3(self, mode, want):
        # Its 64 return truth sets select only 8 distinct relation tuples,
        # so its pop summaries are shared across truth sets.
        assert _digest(MODES[mode](build_witness_nfa(1, 3))) == want

    @pytest.mark.parametrize("mode, wants", [
        ("direct", [
            "3a8ee6ca6bd457eb0a75c904f0d96773899782652c4a29a2b204cdfa51144769",
            "194a1c857c7c65c8189c5e868ffd5239b08e9b38147127ace2c2d1470811019d",
            "2257a49d47ba178e7598d4de395f2c4438b849a309bdbcc77219f18667a6cd5a",
        ]),
        ("nostackpred", [
            "f68a7aa6ad8d6e3b4a315911b4c11966cd4dd60a4713885cf22ab68919fc4ccb",
            "d845c131bfd9de9eaa911860d7772f9def6a50fedccd11af823a48a563ad6a9c",
            "8f8209b0b20df99f127acaaaede16878f102debcc90583e3ac1440c24a2d94c5",
        ]),
    ])
    def test_monitor_automata(self, mode, wants, workloads):
        # All four clock kinds, stack clocks included.
        got = [_digest(MODES[mode](workloads.monitor_automaton(spec)))
               for spec in workloads.MONITOR_AUTOMATA]
        assert got == wants

    @staticmethod
    def draws_digest(seed: int, max_states: int) -> str:
        """One digest of 300 generator draws, cycling the constructions."""
        rng = random.Random(seed)
        digests = []
        for i in range(300):
            mode = ("untimed", "direct", "nostackpred")[i % 3]
            a = random_automaton(rng, max_states=max_states, max_stack=2,
                                 max_atoms=2, timed=(mode != "untimed"))
            digests.append(_digest(MODES[mode](a)))
        return hashlib.sha256("".join(digests).encode()).hexdigest()

    def test_random_draws(self):
        assert self.draws_digest(0, max_states=2) == (
            "0de8405dc963fa2ce8cbc1c09a04e5705a6df23998ceb69ccda0d394d8bc44ba")

    def test_random_draws_with_three_states(self):
        # Three source states give anchor masks of three bits, so several
        # plans of return truth-set classes exist per (bracket, S).
        assert self.draws_digest(1, max_states=3) == (
            "ba18fc8c92ae8c2bb4fc57b338f48208f89e641268b32117e8a0053170bdcf8f")


class TestCollectorPause:
    """Each construction pauses the cyclic collector while it builds and
    leaves the caller's setting as it was, however it ends."""

    @pytest.fixture
    def source(self):
        # 13 states and 13 stack symbols: the error below strikes partway.
        a = random_automaton(random.Random(6), timed=False, max_states=3)
        det = determinize_untimed(a)
        assert len(det.states) > 2 and len(det.stack) > 2
        return a

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_restores_the_caller_setting(self, mode, enabled, source,
                                         monkeypatch, collector):
        seen = []
        real = determinize_module.eval_under

        def recording(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(determinize_module, "eval_under", recording)
        (gc.enable if enabled else gc.disable)()
        MODES[mode](source)
        assert seen and not any(seen)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_restores_the_caller_setting_on_error(self, mode, enabled,
                                                  source, monkeypatch,
                                                  collector):
        # eval_under runs inside the step hooks, partway through the search.
        calls = []
        real = determinize_module.eval_under

        def failing(*args):
            calls.append(None)
            if len(calls) == 5:
                raise RuntimeError("partway")
            return real(*args)

        monkeypatch.setattr(determinize_module, "eval_under", failing)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="partway"):
            MODES[mode](source)
        assert gc.isenabled() is enabled


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
