"""The witness family: encodings, validity, the checker NFA, separation."""

import random
from fractions import Fraction

import pytest

from ecidpda import (SuffixPlan, WitnessError, WitnessSpec, build_prefix,
                     build_suffix, build_well_formed, build_witness_nfa,
                     clock_value, combined_spec, concat_timed,
                     determinize_direct, distinguishing_suffix,
                     distinguishing_suffix_plan, enumerate_specs, hist,
                     is_deterministic, is_valid, simulate, DETERMINISTIC)
from ecidpda.witness import (encode_relation, encode_set, is_left_total,
                             is_right_total, stack_symbol)

F = Fraction


def spec(n, k, m, s, rels, xs, ys) -> WitnessSpec:
    return WitnessSpec.make(n, k, m, s, rels, xs, ys)


class TestEncodings:
    def test_relation_empty(self):
        assert encode_relation([], 2) == []

    def test_relation_two_pairs(self):
        assert (encode_relation({(0, 1), (1, 0)}, 2)
                == ["#", "b", "#", "a"])

    def test_relation_counts(self):
        assert encode_relation({(2, 1)}, 3) == ["#", "a", "a", "b"]

    def test_relation_range_check(self):
        with pytest.raises(WitnessError):
            encode_relation({(2, 0)}, 2)

    def test_set_empty(self):
        assert encode_set([], 2) == ["e1", "e2"]

    def test_set_member_repeated_after_prefix(self):
        assert encode_set([2], 2) == ["e1", "e2", "e2"]
        assert encode_set([1], 1) == ["e1", "e1"]

    def test_set_range_check(self):
        with pytest.raises(WitnessError):
            encode_set([3], 2)


class TestSpec:
    def test_validation(self):
        with pytest.raises(WitnessError):
            spec(2, 1, 1, (0,), [{(0, 1)}], [{1}], [{1}])  # s too short
        with pytest.raises(WitnessError):
            spec(2, 1, 1, (0, 2), [{(0, 1)}], [{1}], [{1}])  # number >= n
        with pytest.raises(WitnessError):
            spec(2, 1, 1, (0, 1), [{(0, 1)}], [{2}], [{1}])  # event > k

    def test_json_round_trip(self):
        sp = spec(3, 2, 2, (0, 2, 1), [{(0, 2)}, {(2, 1), (0, 0)}],
                  [{1}, {1, 2}], [{2}, set()])
        assert WitnessSpec.from_json(sp.to_json()) == sp

    def test_is_valid(self):
        good = spec(2, 1, 1, (0, 1), [{(0, 1)}], [{1}], [{1}])
        assert is_valid(good)
        assert not is_valid(spec(2, 1, 1, (0, 0), [{(0, 1)}], [{1}], [{1}]))
        assert not is_valid(spec(2, 1, 1, (0, 1), [{(0, 1)}], [{1}], [set()]))

    def test_totality_predicates(self):
        assert is_left_total(frozenset({(0, 0), (1, 1)}), 2)
        assert not is_left_total(frozenset({(0, 0)}), 2)
        assert is_right_total(frozenset({(0, 1), (1, 0)}), 2)
        assert not is_right_total(frozenset({(0, 0), (1, 0)}), 2)


class TestBuild:
    def test_symbol_sequence(self):
        sp = spec(2, 1, 1, (0, 1), [{(0, 1)}], [{1}], [{1}])
        w = build_well_formed(sp)
        assert list(w.symbols) == ["e1", "e1", "<", "#", "b",
                                   "c", "e1", "e1", ">"]

    def test_membership_is_announced_by_timing(self):
        member = spec(1, 1, 1, (0, 0), [{(0, 0)}], [{1}], [{1}])
        absent = spec(1, 1, 1, (0, 0), [{(0, 0)}], [set()], [set()])
        for sp, is_member in ((member, True), (absent, False)):
            w = build_well_formed(sp)
            for i in range(1, len(w) + 1):
                if w.symbol(i) not in "<>":
                    continue
                value = clock_value(w, i, hist("e1"))
                assert value is not None
                assert (value < 1) == is_member, (sp, i)

    def test_prefix_is_a_prefix(self):
        sp = spec(2, 2, 2, (1, 0, 1), [{(1, 0)}, {(0, 1)}],
                  [{1}, {2}], [{1}, {2}])
        full = build_well_formed(sp)
        pre = build_prefix(sp)
        assert full.symbols[:len(pre)] == pre.symbols
        assert full.events[:len(pre)] == pre.events

    def test_exact_events(self):
        w = build_well_formed(spec(2, 1, 1, (0, 1), [{(0, 1)}], [{1}], [{1}]))
        assert w.events == (
            ("e1", F(1, 4)), ("e1", F(3, 2)), ("<", F(2)), ("#", F(9, 4)),
            ("b", F(5, 2)), ("c", F(11, 4)), ("e1", F(3)), ("e1", F(17, 4)),
            (">", F(19, 4)))

    @pytest.mark.parametrize("n,k,m", [(2, 1, 2), (1, 2, 1)])
    def test_prefix_then_suffix(self, n, k, m):
        for sp in enumerate_specs(n, k, m):
            pre = build_prefix(sp)
            post = build_suffix(SuffixPlan(sp.s, sp.y_sets, 1), sp.k,
                                start=pre.events[-1][1])
            assert build_well_formed(sp) == concat_timed(pre, post)

    def test_concat_rejects_mixed_alphabets(self):
        a1 = build_well_formed(spec(1, 1, 1, (0, 0), [{(0, 0)}],
                                    [{1}], [{1}]))
        a2 = build_well_formed(spec(1, 2, 1, (0, 0), [{(0, 0)}],
                                    [{1}], [{1}]))
        with pytest.raises(WitnessError):
            concat_timed(a1, a2)


class TestCheckerNfa:
    def test_stack_symbol_count(self):
        for n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
            nfa = build_witness_nfa(n, k)
            assert len(nfa.stack) == n * k
            assert set(nfa.stack) == {stack_symbol(s, e)
                                      for s in range(n)
                                      for e in range(1, k + 1)}

    def test_state_count_linear(self):
        for n in (1, 2, 3, 5):
            nfa = build_witness_nfa(n, 2)
            assert len(nfa.states) == 5 * n  # start absorbed into the 5 rows

    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (1, 2, 1), (2, 1, 2)])
    def test_exhaustive_agreement(self, n, k, m):
        nfa = build_witness_nfa(n, k)
        for sp in enumerate_specs(n, k, m):
            w = build_well_formed(sp)
            assert simulate(nfa, w).accepted == is_valid(sp), sp.to_json()

    def test_determinization_agrees(self):
        nfa = build_witness_nfa(2, 1)
        det = determinize_direct(nfa)
        assert is_deterministic(det) == DETERMINISTIC
        rng = random.Random(500)
        specs = list(enumerate_specs(2, 1, 1))
        for sp in rng.sample(specs, 60):
            w = build_well_formed(sp)
            assert simulate(det, w).accepted == is_valid(sp), sp.to_json()


class TestSeparation:
    def test_equal_parameters_no_suffix(self):
        sp = spec(2, 1, 1, (0, 1), [{(0, 1)}], [{1}], [{1}])
        other = spec(2, 1, 1, (1, 0), [{(0, 1)}], [{1}], [set()])
        # Only relations and X sets matter for the prefix.
        assert distinguishing_suffix_plan(sp, other) is None

    def test_relation_case(self):
        r1 = {(0, 0), (1, 1)}
        r2 = {(0, 1), (1, 0)}
        sp1 = spec(2, 1, 1, (0, 0), [r1], [{1}], [{1}])
        sp2 = spec(2, 1, 1, (0, 0), [r2], [{1}], [{1}])
        plan = distinguishing_suffix_plan(sp1, sp2)
        assert plan is not None
        winner, loser = (sp1, sp2) if plan.valid_for == 1 else (sp2, sp1)
        assert is_valid(combined_spec(winner, plan))
        assert not is_valid(combined_spec(loser, plan))

    def test_set_case(self):
        sp1 = spec(1, 2, 1, (0, 0), [{(0, 0)}], [{1, 2}], [{1}])
        sp2 = spec(1, 2, 1, (0, 0), [{(0, 0)}], [{1}], [{1}])
        plan = distinguishing_suffix_plan(sp1, sp2)
        assert plan.valid_for == 1
        assert plan.y_sets[0] == frozenset({2})

    def test_timed_suffix_separates_on_the_checker(self):
        nfa = build_witness_nfa(2, 1)
        r1 = {(0, 0), (1, 1)}
        r2 = {(0, 1), (1, 0)}
        sp1 = spec(2, 1, 1, (0, 0), [r1], [{1}], [{1}])
        sp2 = spec(2, 1, 1, (0, 0), [r2], [{1}], [{1}])
        w2 = distinguishing_suffix(sp1, sp2)
        a1 = simulate(nfa, concat_timed(build_prefix(sp1), w2)).accepted
        a2 = simulate(nfa, concat_timed(build_prefix(sp2), w2)).accepted
        assert a1 != a2

    def test_one_side_uncompletable(self):
        sp1 = spec(1, 1, 1, (0, 0), [{(0, 0)}], [{1}], [{1}])
        sp2 = spec(1, 1, 1, (0, 0), [{(0, 0)}], [set()], [{1}])
        plan = distinguishing_suffix_plan(sp1, sp2)
        assert plan.valid_for == 1
        assert is_valid(combined_spec(sp1, plan))
        assert not is_valid(combined_spec(sp2, plan))

    def test_mismatched_parameters_rejected(self):
        sp1 = spec(2, 1, 1, (0, 0), [{(0, 0)}], [{1}], [{1}])
        sp2 = spec(3, 1, 1, (0, 0), [{(0, 0)}], [{1}], [{1}])
        with pytest.raises(WitnessError):
            distinguishing_suffix_plan(sp1, sp2)
