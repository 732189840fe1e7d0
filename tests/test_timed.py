"""Timed strings, bracket matching and clock values."""

import json
import random
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from ecidpda import (TRUE, Clock, ClockKind, Ecidpda, InternalRule,
                     PartitionedAlphabet, TimedString, TimedStringError, atom,
                     clock_ticks, clock_value, compute_matching, desugar,
                     evaluate, hist, load_timed_string,
                     longest_well_nested_suffix_start, pred, simulate,
                     stack_hist, stack_pred)
from ecidpda import timed as timed_module
from ecidpda.timed import MAX_SCALE_BITS
from ecidpda.rat import format_rational, parse_rational

from .conftest import (all_bracket_patterns, random_symbols,
                       reference_matching, reference_suffix_start, timed)

F = Fraction


class TestRationals:
    @pytest.mark.parametrize("text,value", [
        ("0.6", F(3, 5)), ("1", F(1)), ("3/4", F(3, 4)), ("0", F(0)),
        ("2.25", F(9, 4)), ("10/4", F(5, 2)), ("-2", F(-2)), ("+.5", F(1, 2)),
        ("5.", F(5)), (" 7/2 ", F(7, 2)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1e999999999", "1E5", "2.5e-1", "1_000", "inf", "nan", "1.5/2",
        "0x10", "\u0663", "", "-", ".", "1/0",
    ])
    def test_only_the_documented_forms_parse(self, text):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(text)

    @pytest.mark.parametrize("value", [F(3, 5), F(0), F(7), F(1, 3), F(9, 4)])
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    def test_format_prefers_decimals(self):
        assert format_rational(F(3, 5)) == "0.6"
        assert format_rational(F(1, 3)) == "1/3"
        assert format_rational(F(5)) == "5"


class TestAlphabet:
    def test_classes_must_be_disjoint(self):
        with pytest.raises(TimedStringError):
            PartitionedAlphabet({"<"}, {"<"}, {"c"})

    def test_round_trip(self, bracket_alphabet):
        data = bracket_alphabet.to_json()
        assert PartitionedAlphabet.from_json(data) == bracket_alphabet

    def test_contains(self, bracket_alphabet):
        assert "<" in bracket_alphabet
        assert "z" not in bracket_alphabet


class TestTimedString:
    def test_timestamps_must_increase(self, bracket_alphabet):
        with pytest.raises(TimedStringError):
            TimedString(bracket_alphabet, [("c", F(1)), ("d", F(1))])

    def test_symbols_must_be_in_alphabet(self, bracket_alphabet):
        with pytest.raises(TimedStringError):
            TimedString(bracket_alphabet, [("z", F(1))])

    def test_positions_are_one_based(self, example_string):
        assert example_string.symbol(1) == "c"
        assert example_string.time(6) == F(8, 10)
        with pytest.raises(IndexError):
            example_string.symbol(0)
        with pytest.raises(IndexError):
            example_string.symbol(8)

    def test_json_round_trip(self, example_string):
        data = json.loads(json.dumps(example_string.to_json()))
        assert TimedString.from_json(data) == example_string

    def test_line_format(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("\n".join([
            "calls: <", "returns: >", "internals: c d",
            "c 0.1  # leading internal", "< 0.2", "> 0.7",
        ]))
        w = load_timed_string(str(path))
        assert w.symbols == ("c", "<", ">")
        assert w.time(2) == F(1, 5)


class TestMatching:
    def test_single_pair(self, bracket_alphabet):
        w = timed(bracket_alphabet, "< c >")
        m = compute_matching(w)
        assert m[1] == 3 and m[3] == 1 and m[2] is None

    def test_example_string(self, example_string):
        m = compute_matching(example_string)
        assert m[2] == 6 and m[6] == 2
        assert m[3] == 5 and m[5] == 3

    def test_ill_nested(self, bracket_alphabet):
        w = timed(bracket_alphabet, "> <")
        m = compute_matching(w)
        assert m[1] is None and m[2] is None

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_index_out_of_range(self, bracket_alphabet, i):
        m = compute_matching(timed(bracket_alphabet, "< c >"))
        with pytest.raises(IndexError):
            m[i]

    def test_agrees_with_reference_exhaustively(self, bracket_alphabet):
        for pattern in all_bracket_patterns(10):
            w = timed(bracket_alphabet, pattern)
            m = compute_matching(w)
            want = reference_matching(list(w.symbols), bracket_alphabet)
            got = {i: m[i] for i in range(1, len(w) + 1) if m[i] is not None}
            assert got == want, pattern

    def test_agrees_with_reference_on_random_strings(self, bracket_alphabet):
        rng = random.Random(0)
        for _ in range(300):
            symbols = random_symbols(rng, bracket_alphabet, max_len=20)
            if not symbols:
                continue
            w = timed(bracket_alphabet, symbols)
            m = compute_matching(w)
            want = reference_matching(symbols, bracket_alphabet)
            got = {i: m[i] for i in range(1, len(w) + 1) if m[i] is not None}
            assert got == want, symbols


class TestClockValue:
    def test_example_defined_values(self, example_string):
        w = example_string
        assert clock_value(w, 6, stack_hist()) == F(6, 10)
        assert clock_value(w, 6, hist("<")) == F(4, 10)
        assert clock_value(w, 6, hist("c")) == F(3, 10)
        assert clock_value(w, 6, hist(">")) == F(1, 10)
        assert clock_value(w, 6, pred("d")) == F(2, 10)

    def test_example_undefined_values(self, example_string):
        w = example_string
        for clock in (hist("d"), pred("<"), pred("c"), pred(">"),
                      stack_pred()):
            assert clock_value(w, 6, clock) is None

    def test_stack_prediction_at_first_bracket(self, example_string):
        assert clock_value(example_string, 2, stack_pred()) == F(6, 10)

    def test_position_out_of_range(self, example_string):
        with pytest.raises(IndexError):
            clock_value(example_string, 8, stack_hist())

    def test_history_defined_iff_earlier_occurrence(self, bracket_alphabet):
        rng = random.Random(1)
        for _ in range(100):
            symbols = random_symbols(rng, bracket_alphabet)
            if not symbols:
                continue
            w = timed(bracket_alphabet, symbols)
            for i in range(1, len(w) + 1):
                for sym in sorted(bracket_alphabet.symbols):
                    value = clock_value(w, i, hist(sym))
                    occurs = sym in symbols[:i - 1]
                    assert (value is not None) == occurs
                    if value is not None:
                        assert value > 0

    def test_stack_duality(self, bracket_alphabet):
        rng = random.Random(2)
        for _ in range(200):
            symbols = random_symbols(rng, bracket_alphabet)
            if not symbols:
                continue
            w = timed(bracket_alphabet, symbols)
            m = compute_matching(w)
            for i in range(1, len(w) + 1):
                j = m[i]
                if j is not None and i < j:
                    assert (clock_value(w, i, stack_pred())
                            == clock_value(w, j, stack_hist()))

    def test_stack_clocks_only_on_matched_brackets(self, bracket_alphabet):
        w = timed(bracket_alphabet, "> c <")
        assert clock_value(w, 1, stack_hist()) is None
        assert clock_value(w, 3, stack_pred()) is None
        assert clock_value(w, 2, stack_hist()) is None

    def test_clock_constructors_validate(self):
        with pytest.raises(TimedStringError):
            Clock(ClockKind.SYMBOL_HISTORY)
        with pytest.raises(TimedStringError):
            Clock(ClockKind.STACK_HISTORY, "c")


def reference_clock_value(w: TimedString, i: int, clock: Clock):
    """Clock value by scanning the string, as the definitions read."""
    symbols, alphabet = w.symbols, w.alphabet
    if clock.kind is ClockKind.SYMBOL_HISTORY:
        earlier = [j for j in range(1, i) if symbols[j - 1] == clock.symbol]
        return w.time(i) - w.time(earlier[-1]) if earlier else None
    if clock.kind is ClockKind.SYMBOL_PREDICTION:
        later = [j for j in range(i + 1, len(w) + 1)
                 if symbols[j - 1] == clock.symbol]
        return w.time(later[0]) - w.time(i) if later else None
    partner = reference_matching(list(symbols), alphabet).get(i)
    if partner is None:
        return None
    if clock.kind is ClockKind.STACK_HISTORY:
        if symbols[i - 1] in alphabet.returns:
            return w.time(i) - w.time(partner)
        return None
    if symbols[i - 1] in alphabet.calls:
        return w.time(partner) - w.time(i)
    return None


def all_clocks(alphabet: PartitionedAlphabet) -> list[Clock]:
    return ([hist(s) for s in sorted(alphabet.symbols)]
            + [pred(s) for s in sorted(alphabet.symbols)]
            + [stack_hist(), stack_pred()])


class TestClockIndex:
    """clock_value reads a per-string index; a scan is the reference."""

    def check_against_reference(self, w: TimedString) -> None:
        clocks = all_clocks(w.alphabet)
        # Two passes: the first builds the index, the second reads it.
        for _ in range(2):
            for i in range(1, len(w) + 1):
                for clock in clocks:
                    assert (clock_value(w, i, clock)
                            == reference_clock_value(w, i, clock)), (
                        w.symbols, i, str(clock))

    def test_random_strings(self, bracket_alphabet):
        rng = random.Random(7)
        steps = [F(1, 4), F(1, 2), F(1), F(3, 2)]
        for _ in range(300):
            symbols = random_symbols(rng, bracket_alphabet, max_len=20)
            t, events = F(0), []
            for sym in symbols:
                t += rng.choice(steps)
                events.append((sym, t))
            if events:
                self.check_against_reference(
                    TimedString(bracket_alphabet, events))

    def test_all_bracket_patterns(self, bracket_alphabet):
        # Only < and > occur, so c and d are alphabet symbols absent from
        # every string.
        for pattern in all_bracket_patterns(8):
            self.check_against_reference(timed(bracket_alphabet, pattern))

    @pytest.fixture
    def matching_calls(self, monkeypatch):
        calls = []
        original = timed_module.compute_matching

        def counting(w):
            calls.append(w)
            return original(w)

        monkeypatch.setattr(timed_module, "compute_matching", counting)
        return calls

    def test_stack_clocks_match_once_per_string(self, bracket_alphabet,
                                                matching_calls):
        w = timed(bracket_alphabet, "< < c > d > > <")
        for _ in range(3):
            for i in range(1, len(w) + 1):
                clock_value(w, i, stack_hist())
                clock_value(w, i, stack_pred())
        assert matching_calls == [w]

    def test_symbol_clocks_never_match(self, bracket_alphabet,
                                       matching_calls):
        w = timed(bracket_alphabet, "< < c > d > > <")
        for i in range(1, len(w) + 1):
            for sym in sorted(bracket_alphabet.symbols):
                clock_value(w, i, hist(sym))
                clock_value(w, i, pred(sym))
        assert matching_calls == []

    def test_index_stays_out_of_equality(self, bracket_alphabet):
        w = timed(bracket_alphabet, "< c >")
        fresh = timed(bracket_alphabet, "< c >")
        clock_value(w, 1, stack_pred())
        clock_value(w, 2, hist("<"))
        assert w == fresh and hash(w) == hash(fresh)
        assert repr(w) == repr(fresh)


class TestExactTicks:
    """A string keeps its timestamps as ints over one scale D, the lcm of
    their denominators; clock values and atom truths stay exact."""

    def test_scale_and_ticks(self, example_string):
        w = example_string
        assert w.scale == 10
        assert clock_ticks(w, 6, stack_hist()) == 6
        assert clock_ticks(w, 6, pred("d")) == 2
        assert clock_ticks(w, 6, pred("c")) is None
        empty = TimedString(w.alphabet, [])
        assert len(empty) == 0 and empty.scale == 1
        with pytest.raises(IndexError):
            clock_ticks(empty, 1, hist("c"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-30, 30),
                              st.sampled_from([1, 2, 3, 5, 7, 12])),
                    max_size=12),
           st.randoms(use_true_random=False))
    def test_clocks_and_atoms_agree_with_fractions(self, stamps, rng):
        # Mixed denominators, integer and negative timestamps, and the
        # empty string; the bounds are each defined value itself (the
        # boundary) and values with denominators 11 and 13, which never
        # divide D.
        alphabet = PartitionedAlphabet({"<"}, {">"}, {"c", "d"})
        times = sorted({F(p, q) for p, q in stamps})
        w = TimedString(alphabet, [(rng.choice("<>cd"), t) for t in times])
        assert all(w.scale % t.denominator == 0 for t in times)
        for i in range(1, len(w) + 1):
            for clock in all_clocks(alphabet):
                value = reference_clock_value(w, i, clock)
                assert clock_value(w, i, clock) == value
                bounds = [F(0), F(5, 11), F(12, 13), F(3)]
                if value is not None:
                    bounds += [value, value + F(1, 11), value - F(1, 13)]
                for bound in bounds:
                    if bound < 0:
                        continue
                    for op in ("<=", ">="):
                        want = value is not None and (
                            value <= bound if op == "<=" else value >= bound)
                        assert evaluate(atom(clock, op, bound), w, i) == want

    def test_a_string_at_the_scale_limit_runs(self, bracket_alphabet):
        tick = F(1, 2 ** (MAX_SCALE_BITS - 1))
        w = TimedString(bracket_alphabet,
                        [("c", tick), ("c", 2 * tick), ("d", 1)])
        assert w.scale.bit_length() == MAX_SCALE_BITS
        assert clock_value(w, 2, hist("c")) == tick
        # At position 2 hist(c) is exactly one tick; at 3 it is 1 - 2 ticks,
        # compared with a bound whose denominator does not divide D.
        a = Ecidpda(bracket_alphabet, ["q0", "q1", "q2", "q3"], ["q0"],
                    ["q3"], [],
                    [InternalRule("q0", "c", TRUE, "q1"),
                     InternalRule("q1", "c", desugar("=", hist("c"), tick),
                                  "q2"),
                     InternalRule("q2", "d", atom(hist("c"), ">=", F(2, 3)),
                                  "q3")])
        assert simulate(a, w).accepted
        with pytest.raises(TimedStringError, match=str(MAX_SCALE_BITS)):
            TimedString(bracket_alphabet, [("c", tick / 2)])

    def test_a_long_string_past_the_scale_limit_is_refused_fast(
            self, bracket_alphabet):
        # Timestamps k + 1/(k+2): the lcm of 2, 3, ..., k+2 passes
        # MAX_SCALE_BITS after about 700 events.
        events = [("c", F(k * (k + 2) + 1, k + 2)) for k in range(100_000)]
        started = perf_counter()
        with pytest.raises(TimedStringError, match="position 7[0-9][0-9] "):
            TimedString(bracket_alphabet, events)
        assert perf_counter() - started < 1.0

    def test_increase_is_checked_on_ticks(self, bracket_alphabet, tmp_path):
        for events, pos in [
            ([("c", F(2, 4)), ("d", F(1, 2))], 2),
            ([("c", F(1, 3)), ("d", F(1, 2)), ("c", F(5, 12))], 3),
            ([("c", F(-1, 2)), ("d", F(1, 7)), ("c", F(1, 7))], 3),
        ]:
            with pytest.raises(TimedStringError,
                               match=f"increase at position {pos}$"):
                TimedString(bracket_alphabet, events)
        path = tmp_path / "w.txt"
        path.write_text("calls: <\nreturns: >\ninternals: c d\n"
                        "c 0.5\nd 1/2\n")
        with pytest.raises(TimedStringError,
                           match="increase at position 2$"):
            load_timed_string(str(path))


class TestSuffixStart:
    def test_whole_string_well_nested(self, bracket_alphabet):
        w = timed(bracket_alphabet, "< c >")
        assert longest_well_nested_suffix_start(w, 3) == 1

    def test_unmatched_call_ends_prefix(self, bracket_alphabet):
        w = timed(bracket_alphabet, "c <")
        assert longest_well_nested_suffix_start(w, 2) == 3

    def test_example_string_full_prefix(self, example_string):
        # The whole Example string is well-nested, so the longest well-nested
        # suffix of the 7-symbol prefix is the entire string.
        assert longest_well_nested_suffix_start(example_string, 7) == 1

    def test_agrees_with_scan_oracle(self, bracket_alphabet):
        rng = random.Random(3)
        for _ in range(200):
            symbols = random_symbols(rng, bracket_alphabet)
            if not symbols:
                continue
            w = timed(bracket_alphabet, symbols)
            for i in range(0, len(w) + 1):
                want = reference_suffix_start(symbols, i, bracket_alphabet)
                assert longest_well_nested_suffix_start(w, i) == want
