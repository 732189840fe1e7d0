"""The automaton model: simulation, determinism check, serialization."""

import gc
import random
from fractions import Fraction

import pytest

import ecidpda.automata as automata_module
import ecidpda.constraints as constraints_module
from ecidpda import (And, AutomatonError, CallRule, DETERMINISTIC,
                     Ecidpda, FALSE, InternalRule, NondeterminismWitness,
                     Not, Or, ReturnRule, TRUE, atom, build_witness_nfa,
                     clock_value, desugar, determinize_direct,
                     determinize_no_stack_prediction, determinize_untimed,
                     embed_untimed, evaluate, hist, is_deterministic,
                     parse_guard, pred, simulate, stack_hist, stack_pred, xi)
from ecidpda.automata import RuleIndex, RunResult, collector_paused
from ecidpda.constraints import sorted_atoms
from ecidpda.generate import random_automaton, random_timed_string
from ecidpda.timed import PartitionedAlphabet, TimedString

from .conftest import timed

F = Fraction


def trivial_automaton(alphabet) -> Ecidpda:
    return Ecidpda(alphabet, ["q0"], ["q0"], ["q0"], [], [])


class TestValidation:
    def test_needs_initial_state(self, bracket_alphabet):
        with pytest.raises(AutomatonError):
            Ecidpda(bracket_alphabet, ["q0"], [], ["q0"], [], [])

    def test_rule_symbol_class_must_match(self, bracket_alphabet):
        with pytest.raises(AutomatonError):
            Ecidpda(bracket_alphabet, ["q0"], ["q0"], [], ["g"],
                    [InternalRule("q0", "<", TRUE, "q0")])

    def test_unknown_stack_symbol(self, bracket_alphabet):
        with pytest.raises(AutomatonError):
            Ecidpda(bracket_alphabet, ["q0"], ["q0"], [], ["g"],
                    [CallRule("q0", "<", TRUE, "q0", "h")])

    def test_unknown_state(self, bracket_alphabet):
        with pytest.raises(AutomatonError):
            Ecidpda(bracket_alphabet, ["q0"], ["q0"], [], [],
                    [InternalRule("q0", "c", TRUE, "q1")])


class TestSimulate:
    def test_empty_string_accepting_initial(self, bracket_alphabet):
        a = trivial_automaton(bracket_alphabet)
        w = TimedString(bracket_alphabet, [])
        assert simulate(a, w).accepted

    def test_no_rule_rejects(self, bracket_alphabet):
        a = trivial_automaton(bracket_alphabet)
        w = TimedString(bracket_alphabet, [("c", F(1, 2))])
        result = simulate(a, w)
        assert not result.accepted
        assert result.final_configs == frozenset()

    def test_trace_length(self, bracket_alphabet):
        a = trivial_automaton(bracket_alphabet)
        w = timed(bracket_alphabet, "c c")
        assert len(simulate(a, w).trace) == 3

    def test_symbol_outside_alphabet(self, bracket_alphabet):
        a = trivial_automaton(bracket_alphabet)
        other = PartitionedAlphabet({"<"}, {">"}, {"z"})
        w = timed(other, "z")
        with pytest.raises(AutomatonError):
            simulate(a, w)

    @staticmethod
    def _predicted_pair(alphabet) -> Ecidpda:
        return Ecidpda(alphabet, ["q0", "q1", "q2"], ["q0"], ["q2"], ["g"], [
            CallRule("q0", "<", parse_guard("stackpred <= 1"), "q1", "g"),
            ReturnRule("q1", ">", "g", TRUE, "q2"),
        ])

    def test_string_must_class_symbols_as_the_automaton(self,
                                                        bracket_alphabet):
        # Read as internals, the brackets would leave stackpred undefined.
        a = self._predicted_pair(bracket_alphabet)
        flat = PartitionedAlphabet(set(), set(), {"<", ">", "c"})
        events = [("<", F(1)), (">", F(3, 2))]
        assert simulate(a, TimedString(bracket_alphabet, events)).accepted
        with pytest.raises(AutomatonError, match="classed differently"):
            simulate(a, TimedString(flat, events))

    def test_consistent_sub_alphabet_runs(self, bracket_alphabet):
        a = self._predicted_pair(bracket_alphabet)
        brackets = PartitionedAlphabet({"<"}, {">"}, set())
        w = TimedString(brackets, [("<", F(1)), (">", F(3, 2))])
        assert simulate(a, w).accepted

    def test_bottom_return_fires_on_empty_stack(self, bracket_alphabet):
        a = Ecidpda(bracket_alphabet, ["q0", "q1"], ["q0"], ["q1"], ["g"], [
            ReturnRule("q0", ">", None, TRUE, "q1"),
        ])
        assert simulate(a, timed(bracket_alphabet, ">")).accepted

    def test_matched_return_pops(self, bracket_alphabet):
        a = Ecidpda(bracket_alphabet, ["q0", "q1"], ["q0"], ["q1"], ["g"], [
            CallRule("q0", "<", TRUE, "q0", "g"),
            ReturnRule("q0", ">", "g", TRUE, "q1"),
        ])
        assert simulate(a, timed(bracket_alphabet, "< >")).accepted
        # Bottom rule absent: a bare return dies.
        assert not simulate(a, timed(bracket_alphabet, ">")).accepted

    def test_stack_height_synchrony(self, bracket_alphabet):
        rng = random.Random(7)
        for _ in range(50):
            a = random_automaton(rng)
            w = random_timed_string(rng, a.alphabet)
            for configs in simulate(a, w).trace:
                heights = {len(stack) for _, stack in configs}
                assert len(heights) <= 1

    def test_monotone_under_rule_addition(self, bracket_alphabet):
        rng = random.Random(8)
        for _ in range(30):
            a = random_automaton(rng)
            extra = InternalRule(rng.choice(sorted(a.states)), "c", TRUE,
                                 rng.choice(sorted(a.states)))
            bigger = Ecidpda(a.alphabet, a.states, a.initial, a.accepting,
                             a.stack, a.rules + (extra,))
            for _ in range(10):
                w = random_timed_string(rng, a.alphabet)
                if simulate(a, w).accepted:
                    assert simulate(bigger, w).accepted


def reference_step(a: Ecidpda, groups: dict, configs, w: TimedString,
                   i: int) -> set:
    """Successors of `configs` at position i of w, evaluating each rule of
    `groups` (a.rules_by_key()) with its own guard."""
    sym = w.symbol(i)
    nxt = set()
    for state, stack in configs:
        if sym in a.alphabet.returns:
            key = (state, sym, stack[0] if stack else None)
        else:
            key = (state, sym)
        for rule in groups.get(key, ()):
            if not evaluate(rule.guard, w, i):
                continue
            if isinstance(rule, CallRule):
                nxt.add((rule.dst, (rule.push,) + stack))
            elif isinstance(rule, ReturnRule):
                nxt.add((rule.dst, stack[1:]))
            else:
                nxt.add((rule.dst, stack))
    return nxt


def assert_steps_match_reference(a: Ecidpda, strings, rng: random.Random
                                 ) -> None:
    """At every position, step the configurations of the run together with
    a sample of states over every stack top and the empty stack."""
    index, groups = RuleIndex(a), a.rules_by_key()
    tops = [()] + [(g,) for g in sorted(a.stack)]
    every = sorted((q, top) for q in a.states for top in tops)
    for w in strings:
        configs = {(q, ()) for q in a.initial}
        for i in range(1, len(w) + 1):
            configs |= set(rng.sample(every, min(len(every), 20)))
            want = reference_step(a, groups, configs, w, i)
            assert index.step(configs, w, i) == want, (a.to_json(),
                                                       w.to_json())
            configs = want


class TestStepMemo:
    """RuleIndex.step evaluates each guard and atom object at most once per
    position and keeps nothing once the step returns."""

    @pytest.mark.parametrize("mode", ["untimed", "direct", "nostackpred"])
    def test_step_matches_per_rule_evaluation(self, mode):
        construct = {"untimed": determinize_untimed,
                     "direct": determinize_direct,
                     "nostackpred": determinize_no_stack_prediction}[mode]
        rng = random.Random(41)
        for _ in range(25):
            a = random_automaton(rng, max_states=3, max_atoms=2,
                                 timed=(mode != "untimed"))
            strings = [random_timed_string(rng, a.alphabet)
                       for _ in range(6)]
            assert_steps_match_reference(a, strings, rng)
            assert_steps_match_reference(construct(a), strings, rng)

    def test_monitor_automata_match_per_rule_evaluation(self, workloads):
        rng = random.Random(42)
        strings = [workloads.bracket_string(rng, 50) for _ in range(2)]
        for spec in workloads.MONITOR_AUTOMATA:
            a = workloads.monitor_automaton(spec)
            for form in (a, determinize_direct(a),
                         determinize_no_stack_prediction(a)):
                assert_steps_match_reference(form, strings, rng)

    def test_shared_guards_and_equal_atoms(self, bracket_alphabet,
                                           monkeypatch):
        shared = And(atom(hist("c"), "<=", 1),
                     Not(atom(stack_hist(), ">=", 2)))
        twin = atom(hist("c"), "<=", 1)    # equal to shared's atom, not it
        assert twin == shared.left and twin is not shared.left
        a = Ecidpda(bracket_alphabet, ["q0", "q1", "q2"], ["q0", "q1"],
                    ["q2"], ["g"], [
                        InternalRule("q0", "c", shared, "q1"),
                        InternalRule("q1", "c", shared, "q2"),
                        InternalRule("q1", "c", Or(twin, shared.left), "q0"),
                        InternalRule("q2", "c", Not(twin), "q2"),
                        CallRule("q0", "<", shared, "q0", "g"),
                        CallRule("q1", "<", shared, "q2", "g"),
                        ReturnRule("q0", ">", "g", shared, "q1"),
                        ReturnRule("q2", ">", "g", Not(shared), "q1"),
                        ReturnRule("q1", ">", None, shared.right, "q2"),
                    ])
        reads, guards = [], []
        eval_with = automata_module.eval_with

        def counted_evaluate(phi, w, i):
            reads.append((id(phi), i))
            return evaluate(phi, w, i)

        def counted_eval_with(phi, truth):
            guards.append(id(phi))
            return eval_with(phi, truth)

        monkeypatch.setattr(automata_module, "evaluate", counted_evaluate)
        monkeypatch.setattr(automata_module, "eval_with", counted_eval_with)
        index, groups = RuleIndex(a), a.rules_by_key()
        rng = random.Random(43)
        configs = {(q, stack) for q in a.states
                   for stack in [(), ("g",), ("g", "g")]}
        total = 0
        for _ in range(20):
            w = random_timed_string(rng, a.alphabet)
            for i in range(1, len(w) + 1):
                reads.clear()
                guards.clear()
                assert index.step(configs, w, i) == reference_step(
                    a, groups, configs, w, i)
                assert len(set(reads)) == len(reads)
                assert len(set(guards)) == len(guards)
                total += len(reads)
        assert total > 0

    def test_simulate_leaves_no_cyclic_garbage(self, workloads):
        a = determinize_direct(
            workloads.monitor_automaton(workloads.MONITOR_AUTOMATA[2]))
        index = RuleIndex(a)
        w = workloads.bracket_string(random.Random(44), 200)
        gc.collect()
        gc.disable()
        try:
            simulate(a, w, index)
            assert gc.collect() == 0
        finally:
            gc.enable()


def reference_run(a: Ecidpda, w: TimedString) -> RunResult:
    """A run that steps every position with reference_step, dead or not."""
    groups = a.rules_by_key()
    configs = {(q, ()) for q in a.initial}
    trace = [frozenset(configs)]
    for i in range(1, len(w) + 1):
        configs = reference_step(a, groups, configs, w, i)
        trace.append(frozenset(configs))
    return RunResult(any(q in a.accepting for q, _ in configs),
                     frozenset(configs), tuple(trace))


class TestTracedClockAttribute:
    """Atoms read their clocks through the module attribute
    `constraints.clock_value`, which the benchmark's traced run wraps as its
    `timed.clock_value` layer.  A read that bypassed it would make that
    layer read 0; one that went through it twice would count double."""

    @pytest.fixture
    def clock_reads(self, monkeypatch):
        reads = []
        original = constraints_module.clock_value

        def counting(w, i, clock):
            reads.append(i)
            return original(w, i, clock)

        monkeypatch.setattr(constraints_module, "clock_value", counting)
        return reads

    def test_one_read_per_atom_evaluation(self, example_string,
                                          clock_reads):
        for clock in (hist("c"), pred("d"), stack_hist(), stack_pred()):
            for i in range(1, len(example_string) + 1):
                clock_reads.clear()
                evaluate(atom(clock, "<=", F(1, 3)), example_string, i)
                assert clock_reads == [i]

    def test_one_read_per_distinct_atom_in_a_step(self, workloads,
                                                  clock_reads, monkeypatch):
        evaluated = []

        def recording(phi, w, i):
            evaluated.append(id(phi))
            return evaluate(phi, w, i)

        monkeypatch.setattr(automata_module, "evaluate", recording)
        w = workloads.bracket_string(random.Random(45), 100)
        total = 0
        for spec in workloads.MONITOR_AUTOMATA:
            a = workloads.monitor_automaton(spec)
            for form in (a, determinize_direct(a)):
                index = RuleIndex(form)
                # The second pass decides groups by their decision tables.
                for _ in range(2):
                    configs = {(q, ()) for q in form.initial}
                    for i in range(1, len(w) + 1):
                        clock_reads.clear()
                        evaluated.clear()
                        configs = index.step(configs, w, i)
                        assert len(clock_reads) == len(set(evaluated))
                        total += len(clock_reads)
        assert total > 0


class TestDeadRuns:
    """simulate stops stepping once no configuration is left; its result,
    trace included, is that of a run stepped to the end."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """The configuration sets RuleIndex.step is called with."""
        seen = []
        step = RuleIndex.step

        def counted(index, configs, w, i):
            seen.append(set(configs))
            return step(index, configs, w, i)

        monkeypatch.setattr(RuleIndex, "step", counted)
        return seen

    def test_run_dies_partway(self, bracket_alphabet, steps):
        a = Ecidpda(bracket_alphabet, ["q0", "q1"], ["q0"], ["q1"], ["g"], [
            InternalRule("q0", "c", TRUE, "q1"),
            InternalRule("q1", "c", atom(hist("c"), ">=", 2), "q0"),
        ])
        w = timed(bracket_alphabet, "c c c d c c")   # dies at position 2
        result = simulate(a, w)
        assert len(result.trace) == len(w) + 1
        assert [len(configs) for configs in result.trace] == [1, 1, 0, 0,
                                                               0, 0, 0]
        assert len(steps) == 2
        assert result == reference_run(a, w)

    def test_random_runs_equal_a_full_run(self, steps):
        rng = random.Random(46)
        dead = 0
        for _ in range(60):
            a = random_automaton(rng)
            index = RuleIndex(a)
            for _ in range(5):
                w = random_timed_string(rng, a.alphabet)
                steps.clear()
                result = simulate(a, w, index)
                assert result == reference_run(a, w), (a.to_json(),
                                                       w.to_json())
                assert all(steps)
                alive = [bool(configs) for configs in result.trace]
                assert len(steps) == (alive.index(False)
                                      if False in alive else len(w))
                dead += len(steps) < len(w)
        assert dead > 0


class TestDecisionTables:
    """One RuleIndex reused across many strings decides each rule group
    from its atoms' truths, and steps exactly as a fresh index and as
    per-rule evaluation do."""

    @pytest.fixture
    def automaton(self, bracket_alphabet):
        c1 = atom(hist("c"), "<=", 1)
        twin = atom(hist("c"), "<=", 1)     # equal to c1, not c1 itself
        s1 = atom(stack_hist(), ">=", 1)
        p2 = atom(pred("d"), "<=", 2)
        shared = Or(c1, Not(s1))            # one guard object in 4 groups
        return Ecidpda(bracket_alphabet, ["q0", "q1", "q2"], ["q0"],
                       ["q2"], ["g"], [
            InternalRule("q0", "c", shared, "q1"),
            InternalRule("q0", "c", Not(twin), "q2"),
            InternalRule("q0", "c", And(c1, p2), "q0"),
            InternalRule("q1", "c", shared, "q0"),
            InternalRule("q1", "c", FALSE, "q2"),
            InternalRule("q1", "c", TRUE, "q1"),
            InternalRule("q2", "c", Or(p2, FALSE), "q2"),
            # zero-atom groups
            InternalRule("q0", "d", TRUE, "q1"),
            InternalRule("q0", "d", FALSE, "q0"),
            InternalRule("q0", "d", TRUE, "q2"),
            InternalRule("q1", "d", FALSE, "q0"),
            InternalRule("q1", "d", FALSE, "q1"),
            CallRule("q0", "<", shared, "q1", "g"),
            CallRule("q0", "<", Not(shared), "q2", "g"),
            CallRule("q1", "<", TRUE, "q0", "g"),
            CallRule("q1", "<", p2, "q1", "g"),
            CallRule("q2", "<", twin, "q0", "g"),
            CallRule("q2", "<", Or(p2, Not(c1)), "q2", "g"),
            ReturnRule("q0", ">", "g", shared, "q1"),
            ReturnRule("q0", ">", "g", TRUE, "q0"),
            ReturnRule("q1", ">", "g", s1, "q0"),
            ReturnRule("q1", ">", "g", Not(And(s1, twin)), "q2"),
            ReturnRule("q2", ">", "g", Not(s1), "q2"),
            ReturnRule("q0", ">", None, c1, "q1"),
            ReturnRule("q0", ">", None, Not(c1), "q0"),
            ReturnRule("q2", ">", None, TRUE, "q2"),
            ReturnRule("q2", ">", None, FALSE, "q0"),
        ])

    @staticmethod
    def strings(a: Ecidpda, count: int) -> list[TimedString]:
        rng = random.Random(47)
        return [random_timed_string(rng, a.alphabet, max_len=16)
                for _ in range(count)]

    @staticmethod
    def configs(a: Ecidpda) -> set:
        return {(q, stack) for q in a.states
                for stack in [(), ("g",), ("g", "g")]}

    def test_reused_index_matches_fresh_and_reference(self, automaton):
        index, groups = RuleIndex(automaton), automaton.rules_by_key()
        configs = self.configs(automaton)
        for w in self.strings(automaton, 80):
            fresh = RuleIndex(automaton)
            for i in range(1, len(w) + 1):
                want = reference_step(automaton, groups, configs, w, i)
                assert index.step(configs, w, i) == want, w.to_json()
                assert fresh.step(configs, w, i) == want, w.to_json()
        tables = [entry for entry in index.tables.values()
                  if isinstance(entry, tuple)]
        multi = [rules for rules in groups.values() if len(rules) > 1]
        assert len(tables) == len(multi)
        # The zero-atom groups: q0 on d fires its two TRUE rules, q1 none.
        assert ((), {0: [automaton.rules[7], automaton.rules[9]]}) in tables
        assert ((), {0: []}) in tables
        for group_atoms, table in tables:
            assert len(table) <= 2 ** len(group_atoms)

    def test_tables_serve_positions_with_other_clock_values(self,
                                                            automaton):
        index, groups = RuleIndex(automaton), automaton.rules_by_key()
        configs = self.configs(automaton)
        strings = self.strings(automaton, 80)
        for w in strings:
            for i in range(1, len(w) + 1):
                index.step(configs, w, i)
        # The same mask of a group is reached where its clocks differ.
        values_by_mask: dict = {}
        for group_atoms, _ in (entry for entry in index.tables.values()
                               if isinstance(entry, tuple)):
            for w in strings:
                for i in range(1, len(w) + 1):
                    mask = sum(1 << j for j, a in enumerate(group_atoms)
                               if evaluate(a, w, i))
                    values_by_mask.setdefault(
                        (id(group_atoms), mask), set()).add(tuple(
                            clock_value(w, i, a.clock) for a in group_atoms))
        assert any(len(values) > 1 for values in values_by_mask.values())
        # A second pass reads every group of two or more rules from its
        # table: only the guards of one-rule groups are walked.
        single = {id(rules[0].guard) for rules in groups.values()
                  if len(rules) == 1}
        walked = []
        eval_with = automata_module.eval_with

        def counted_eval_with(phi, truth):
            walked.append(id(phi))
            return eval_with(phi, truth)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(automata_module, "eval_with", counted_eval_with)
            for w in strings:
                for i in range(1, len(w) + 1):
                    assert index.step(configs, w, i) == reference_step(
                        automaton, groups, configs, w, i)
        assert set(walked) <= single


class TestCollectorPause:
    """collector_paused, and RuleIndex built under it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_caller_setting(self, enabled, collector):
        (gc.enable if enabled else gc.disable)()
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("partway")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_rule_index_restores_the_caller_setting(self, enabled,
                                                    bracket_alphabet,
                                                    collector):
        a = embed_untimed(["q0", "q1"], ["q0"], ["q1"], ["g"],
                          bracket_alphabet,
                          internal=[("q0", "c", "q1")],
                          calls=[("q0", "<", "q0", "g")],
                          returns=[("q0", ">", "g", "q1")])
        seen = []

        class Partway:
            """An automaton whose rules give out after the first."""
            @property
            def rules(self):
                seen.append(gc.isenabled())
                yield a.rules[0]
                raise RuntimeError("partway")

        (gc.enable if enabled else gc.disable)()
        RuleIndex(a)
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError):
            RuleIndex(Partway())
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_builders_leave_no_cyclic_garbage(self, workloads, collector):
        # The premise of the pause: a collection during a construction or
        # an index build would free nothing.
        sources = [build_witness_nfa(1, 2), workloads.monitor_automaton(
            workloads.MONITOR_AUTOMATA[2])]
        untimed = random_automaton(random.Random(45), timed=False)
        gc.collect()
        gc.disable()
        for source in sources:
            for construct in (determinize_direct,
                              determinize_no_stack_prediction):
                RuleIndex(construct(source))
        RuleIndex(determinize_untimed(untimed))
        assert gc.collect() == 0


class TestIsDeterministic:
    def test_xi_guarded_siblings(self, bracket_alphabet):
        universe = sorted_atoms([atom(hist("c"), "<=", 1),
                                 atom(stack_pred(), ">=", 1)])
        a = Ecidpda(bracket_alphabet, ["q0", "q1"], ["q0"], [], ["g"], [
            CallRule("q0", "<", xi(universe, frozenset()), "q0", "g"),
            CallRule("q0", "<", xi(universe, frozenset(universe)), "q1", "g"),
        ])
        assert is_deterministic(a) == DETERMINISTIC

    def test_overlapping_true_guards(self, bracket_alphabet):
        a = Ecidpda(bracket_alphabet, ["q0", "q1"], ["q0"], [], [], [
            InternalRule("q0", "c", TRUE, "q0"),
            InternalRule("q0", "c", TRUE, "q1"),
        ])
        verdict = is_deterministic(a)
        assert isinstance(verdict, NondeterminismWitness)
        assert len(verdict.rules) == 2

    def test_two_initial_states(self, bracket_alphabet):
        a = Ecidpda(bracket_alphabet, ["q0", "q1"], ["q0", "q1"], [], [], [])
        verdict = is_deterministic(a)
        assert isinstance(verdict, NondeterminismWitness)
        assert "initial" in verdict.reason

    def test_returns_keyed_by_pop_symbol(self, bracket_alphabet):
        a = Ecidpda(bracket_alphabet, ["q0"], ["q0"], [], ["g", "h"], [
            ReturnRule("q0", ">", "g", TRUE, "q0"),
            ReturnRule("q0", ">", "h", TRUE, "q0"),
            ReturnRule("q0", ">", None, TRUE, "q0"),
        ])
        assert is_deterministic(a) == DETERMINISTIC


class TestEmbedUntimed:
    def test_single_rule(self, bracket_alphabet):
        a = embed_untimed(["q0", "q1"], ["q0"], ["q1"], [], bracket_alphabet,
                          internal=[("q0", "c", "q1")])
        assert a.rules == (InternalRule("q0", "c", TRUE, "q1"),)

    def test_empty_rule_set_accepts_only_empty(self, bracket_alphabet):
        a = embed_untimed(["q0"], ["q0"], ["q0"], [], bracket_alphabet)
        assert simulate(a, TimedString(bracket_alphabet, [])).accepted
        assert not simulate(a, timed(bracket_alphabet, "c")).accepted

    def test_retiming_invariance(self, bracket_alphabet):
        rng = random.Random(9)
        for _ in range(100):
            a = random_automaton(rng, timed=False)
            w = random_timed_string(rng, a.alphabet)
            if len(w) == 0:
                continue
            offset = F(rng.randint(0, 5))
            retimed = TimedString(a.alphabet,
                                  [(sym, t * 3 + offset)
                                   for sym, t in w.events])
            assert (simulate(a, w).accepted
                    == simulate(a, retimed).accepted)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(10)
        for _ in range(20):
            a = random_automaton(rng)
            again = Ecidpda.from_json(a.to_json())
            assert again.states == a.states
            assert again.initial == a.initial
            assert again.accepting == a.accepting
            assert again.stack == a.stack
            # Chained conjunctions may re-associate through the text form,
            # so compare the stable serialization instead of raw ASTs.
            assert again.to_json() == a.to_json()
            assert Ecidpda.from_json(again.to_json()).rules == again.rules

    def test_bottom_pop_serialized_as_keyword(self, bracket_alphabet):
        a = Ecidpda(bracket_alphabet, ["q0"], ["q0"], [], [],
                    [ReturnRule("q0", ">", None, TRUE, "q0")])
        data = a.to_json()
        assert data["transitions"][0]["pop"] == "bottom"
        assert Ecidpda.from_json(data).rules[0].pop is None

    def test_guards_survive_round_trip(self, bracket_alphabet):
        guard = parse_guard("stackhist > 0.1 or pred(c) >= 0")
        a = Ecidpda(bracket_alphabet, ["q0"], ["q0"], [], [],
                    [ReturnRule("q0", ">", None, guard, "q0")])
        assert Ecidpda.from_json(a.to_json()).rules[0].guard == guard

    def test_save_load(self, tmp_path):
        rng = random.Random(11)
        a = random_automaton(rng)
        path = tmp_path / "a.json"
        a.save(str(path))
        b = Ecidpda.load(str(path))
        assert b.to_json() == a.to_json()
