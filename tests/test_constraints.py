"""Constraint ASTs, truth-assignment semantics and exclusivity."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ecidpda import (And, Atom, ConstraintError, FALSE, Not, Or,
                     POSSIBLY_OVERLAPPING, PROVABLY_EXCLUSIVE, TRUE, atom,
                     atoms, desugar, eval_under, evaluate, format_guard,
                     hist, mutually_exclusive, parse_guard, pred, stack_hist,
                     stack_pred, xi)
import ecidpda.constraints as constraints_module
from ecidpda.constraints import (MAX_GUARD_DEPTH, feasible_truth_sets,
                                 sorted_atoms)
from ecidpda.generate import random_clock
from ecidpda.timed import ClockKind

from .conftest import random_symbols, timed

F = Fraction

A = atom(hist("c"), "<=", 1)
B = atom(pred("d"), ">=", F(1, 2))
C = atom(stack_hist(), "<=", 2)


class TestAst:
    def test_atom_validation(self):
        with pytest.raises(ConstraintError):
            Atom(hist("c"), "<", F(1))
        with pytest.raises(ConstraintError):
            atom(hist("c"), "<=", -1)

    def test_desugar_less_than(self):
        clock = stack_hist()
        assert desugar("<", clock, 1) == And(atom(clock, "<=", 1),
                                             Not(atom(clock, ">=", 1)))

    def test_desugar_equality_zero_bound(self):
        clock = hist("c")
        assert desugar("=", clock, 0) == And(atom(clock, "<=", 0),
                                             atom(clock, ">=", 0))

    def test_desugar_passthrough(self):
        assert desugar("<=", hist("c"), 1) == A

    def test_atoms_collects_leaves(self):
        assert atoms(A) == {A}
        assert atoms(And(A, Not(A))) == {A}
        assert atoms(Or(A, And(B, TRUE))) == {A, B}
        assert atoms(TRUE) == frozenset()


_FIELDS = {
    "atom": lambda x: (x.clock, x.op, x.bound),
    "clock": lambda x: (x.kind, x.symbol),
}
_MAKE = {
    "atom": lambda: atom(hist("c"), "<=", F(3, 2)),
    "clock": lambda: hist("c"),
}

# Pickles under one hash seed, then loads under another and looks the copy
# up among fresh equal objects: a cached hash must not cross the seeds.
_PICKLED_SCRIPT = """
import pickle, sys
from fractions import Fraction
from ecidpda import atom, hist
fresh = [atom(hist(s), "<=", Fraction(3, 2)) for s in "abcdefgh"]
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(fresh[2]))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert loaded in set(fresh) and loaded.clock in {x.clock for x in fresh}
    assert {loaded: 1}[fresh[2]] == 1
"""


class TestCachedHash:
    """Atom and Clock compute their generated hash once."""

    @pytest.mark.parametrize("kind", list(_MAKE))
    def test_hash_is_the_generated_formula(self, kind):
        x = _MAKE[kind]()
        assert hash(x) == hash(_FIELDS[kind](x))

    @pytest.mark.parametrize("kind", list(_MAKE))
    def test_equal_distinct_objects_share_an_entry(self, kind):
        x, y = _MAKE[kind](), _MAKE[kind]()
        assert x is not y and x == y
        assert len({x, y}) == 1 and {x: 1}[y] == 1

    @pytest.mark.parametrize("kind", list(_MAKE))
    @pytest.mark.parametrize("how", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_copies_round_trip(self, kind, how):
        x = _MAKE[kind]()
        y = how(x)
        assert y == x and hash(y) == hash(x) and y in {x}
        assert _FIELDS[kind](y) == _FIELDS[kind](x)

    def test_stack_clock_round_trips(self):
        x = atom(stack_pred(), ">=", 0)
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.clock.kind is ClockKind.STACK_PREDICTION

    def test_pickle_crosses_hash_seeds(self):
        src = str(Path(constraints_module.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        dumped = subprocess.run(
            [sys.executable, "-c", _PICKLED_SCRIPT, "dump"],
            env={**env, "PYTHONHASHSEED": "1"}, capture_output=True,
            check=True, timeout=60).stdout
        subprocess.run(
            [sys.executable, "-c", _PICKLED_SCRIPT, "load"], input=dumped,
            env={**env, "PYTHONHASHSEED": "2"}, capture_output=True,
            check=True, timeout=60)


class TestEvaluate:
    def test_example_guard_true(self, example_string):
        phi = Or(desugar(">", stack_hist(), F(1, 10)),
                 atom(pred("c"), ">=", 0))
        assert evaluate(phi, example_string, 6) is True

    def test_example_guard_false(self, example_string):
        phi = And(desugar(">", hist("c"), F(1, 10)),
                  desugar("<", pred("d"), F(2, 10)))
        assert evaluate(phi, example_string, 6) is False

    def test_negated_undefined_atom(self, example_string):
        phi = Not(atom(hist("d"), "<=", 5))
        assert evaluate(phi, example_string, 6) is True

    def test_desugared_less_than_on_example(self, example_string):
        assert evaluate(desugar("<", stack_hist(), 1), example_string, 6)


class TestEvalUnder:
    def test_basic(self):
        assert eval_under(A, {A}) is True
        assert eval_under(Not(A), {B}) is True

    def test_compositionality(self, bracket_alphabet):
        from ecidpda.generate import random_guard
        rng = random.Random(4)
        for _ in range(300):
            pool = [atom(random_clock(rng, bracket_alphabet),
                         rng.choice(["<=", ">="]), rng.choice([0, 1, 2]))
                    for _ in range(rng.randint(1, 4))]
            phi = random_guard(rng, pool, depth=4)
            symbols = random_symbols(rng, bracket_alphabet)
            if not symbols:
                continue
            w = timed(bracket_alphabet, symbols)
            i = rng.randint(1, len(w))
            truths = {a for a in atoms(phi) if evaluate(a, w, i)}
            assert eval_under(phi, truths) == evaluate(phi, w, i)


class TestXi:
    def test_empty_universe(self):
        assert xi((), ()) is TRUE

    def test_single_negative(self):
        assert xi((A,), ()) == Not(A)

    def test_member_check(self):
        with pytest.raises(ConstraintError):
            xi((A,), (B,))

    def test_unique_truth(self, bracket_alphabet):
        rng = random.Random(5)
        universe = sorted_atoms([A, B, C])
        for _ in range(50):
            symbols = random_symbols(rng, bracket_alphabet)
            if not symbols:
                continue
            w = timed(bracket_alphabet, symbols)
            for i in range(1, len(w) + 1):
                holders = [frozenset(s)
                           for n in range(len(universe) + 1)
                           for s in itertools.combinations(universe, n)
                           if evaluate(xi(universe, frozenset(s)), w, i)]
                assert len(holders) == 1
                assert holders[0] == frozenset(
                    a for a in universe if evaluate(a, w, i))


class TestMutuallyExclusive:
    def test_disjoint_intervals(self):
        low = atom(hist("c"), "<=", 1)
        high = desugar(">", hist("c"), 1)
        assert mutually_exclusive(low, high) == PROVABLY_EXCLUSIVE

    def test_independent_clocks_overlap(self):
        one = atom(hist("c"), "<=", 1)
        other = atom(hist("d"), "<=", 1)
        assert mutually_exclusive(one, other) == POSSIBLY_OVERLAPPING

    def test_xi_family_exclusive_exhaustively(self):
        universe = sorted_atoms([A, B, C])
        subsets = [frozenset(s) for n in range(4)
                   for s in itertools.combinations(universe, n)]
        for s1, s2 in itertools.combinations(subsets, 2):
            verdict = mutually_exclusive(xi(universe, s1), xi(universe, s2))
            assert verdict == PROVABLY_EXCLUSIVE

    def test_symmetric(self):
        pairs = [(A, B), (A, Not(A)), (TRUE, FALSE), (C, desugar(">", stack_hist(), 2))]
        for phi, psi in pairs:
            assert mutually_exclusive(phi, psi) == mutually_exclusive(psi, phi)

    def test_soundness_randomized(self, bracket_alphabet):
        from ecidpda.generate import random_guard
        rng = random.Random(6)
        exclusive_pairs = []
        while len(exclusive_pairs) < 10:
            pool = [atom(random_clock(rng, bracket_alphabet),
                         rng.choice(["<=", ">="]), rng.choice([0, 1, 2]))
                    for _ in range(3)]
            phi = random_guard(rng, pool, depth=3)
            psi = random_guard(rng, pool, depth=3)
            if mutually_exclusive(phi, psi) == PROVABLY_EXCLUSIVE:
                exclusive_pairs.append((phi, psi))
        for _ in range(10_000):
            symbols = random_symbols(rng, bracket_alphabet)
            if not symbols:
                continue
            w = timed(bracket_alphabet, symbols)
            i = rng.randint(1, len(w))
            for phi, psi in exclusive_pairs:
                assert not (evaluate(phi, w, i) and evaluate(psi, w, i))

    def test_below_zero_is_impossible(self):
        # v <= 0 and not v >= 0 needs v < 0, and clock values are at least 0.
        below = desugar("<", hist("c"), 0)
        assert mutually_exclusive(below, TRUE) == PROVABLY_EXCLUSIVE

    def test_visits_only_feasible_truth_sets(self, monkeypatch):
        # 24 atoms: 2^24 assignments, but 8 truth sets on each of 4 clocks.
        universe = sorted_atoms(
            atom(clock, op, F(b, 2))
            for clock in (hist("c"), pred("d"), stack_hist(), stack_pred())
            for b, op in enumerate(["<=", ">="] * 3))
        feasible = feasible_truth_sets(universe)
        assert len(universe) == 24 and len(feasible) == 8 ** 4
        calls = []
        real = constraints_module.eval_under

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(constraints_module, "eval_under", counting)
        phi, psi = xi(universe, feasible[5]), xi(universe, feasible[-5])
        assert mutually_exclusive(phi, psi) == PROVABLY_EXCLUSIVE
        # phi holds only on its own truth set, so psi is read once.
        assert len(calls) == len(feasible) + 1


class TestFeasibleTruthSets:
    def test_contradictory_assignment(self):
        le = atom(hist("c"), "<=", 1)
        ge = atom(hist("c"), ">=", 2)
        feasible = feasible_truth_sets(sorted_atoms([le, ge]))
        assert frozenset([le, ge]) not in feasible
        assert frozenset([le]) in feasible
        # Both false is always feasible: the clock may be undefined.
        assert frozenset() in feasible

    def test_equals_brute_force_over_quarter_valuations(self):
        rng = random.Random(18)
        clocks = [hist("c"), pred("d"), stack_hist(), stack_pred(),
                  hist("<")]
        bounds = [F(0), F(1, 2), F(1), F(3, 2), F(2)]
        # Bounds are multiples of 1/2, so the quarters 0..3 include a value
        # inside every region; None leaves the clock undefined.
        values = [None] + [F(q, 4) for q in range(13)]
        for _ in range(120):
            used = rng.sample(clocks, rng.randint(1, 3))
            universe = sorted_atoms(
                atom(rng.choice(used), rng.choice(["<=", ">="]),
                     rng.choice(bounds))
                for _ in range(rng.randint(1, 6)))
            seen = set()
            for valuation in itertools.product(values, repeat=len(used)):
                value_of = dict(zip(used, valuation))
                seen.add(sum(
                    1 << j for j, a in enumerate(universe)
                    if value_of[a.clock] is not None
                    and (value_of[a.clock] <= a.bound if a.op == "<="
                         else value_of[a.clock] >= a.bound)))
            want = [frozenset(a for j, a in enumerate(universe)
                              if mask >> j & 1) for mask in sorted(seen)]
            assert feasible_truth_sets(universe) == want, universe

    def test_empty_universe(self):
        assert feasible_truth_sets(()) == [frozenset()]


# Any guard the grammar can express: atoms over each clock kind with bounds
# that format as integers, decimals or p/q, constants, and, or and not.
GUARDS = st.recursive(
    st.builds(Atom,
              st.sampled_from([hist("c"), pred("d"), stack_hist(),
                               stack_pred()]),
              st.sampled_from(["<=", ">="]),
              st.fractions(min_value=0, max_value=10, max_denominator=12))
    | st.sampled_from([TRUE, FALSE]),
    lambda sub: st.builds(And, sub, sub) | st.builds(Or, sub, sub)
    | st.builds(Not, sub),
    max_leaves=12)


class TestGuardText:
    @pytest.mark.parametrize("text", [
        "true",
        "false",
        "hist(c) <= 1",
        "stackhist >= 0.5 and not pred(d) <= 2",
        "(hist(<) <= 1 or stackpred >= 1) and hist(c) >= 0",
        "not not hist(c) <= 3/4",
    ])
    def test_round_trip(self, text):
        phi = parse_guard(text)
        assert parse_guard(format_guard(phi)) == phi

    @settings(max_examples=500)
    @given(GUARDS)
    def test_format_is_the_inverse_of_parse(self, phi):
        assert parse_guard(format_guard(phi)) == phi

    def test_right_nested_operands_keep_their_shape(self):
        for op in (And, Or):
            phi = op(A, op(B, C))
            assert parse_guard(format_guard(phi)) == phi
        assert format_guard(And(And(A, B), C)) == (
            "hist(c) <= 1 and pred(d) >= 0.5 and stackhist <= 2")

    def test_sugar_is_desugared(self):
        assert parse_guard("hist(c) < 1") == desugar("<", hist("c"), 1)
        assert parse_guard("stackpred = 2") == desugar("=", stack_pred(), 2)

    @pytest.mark.parametrize("bad", [
        "", "hist(c)", "hist(c) <= ", "hist <= 1 extra )", "(hist(c) <= 1",
        "hist(c) ! 1", "() and true",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises((ConstraintError, ValueError)):
            parse_guard(bad)

    def test_exponent_bound_is_rejected(self):
        # Fraction would expand the exponent into a 10^999999999 integer.
        with pytest.raises(ConstraintError, match="not a rational literal"):
            parse_guard("hist(c) <= 1e999999999")

    def test_example_guards_parse(self, example_string):
        g_true = parse_guard("stackhist > 0.1 or pred(c) >= 0")
        g_false = parse_guard("hist(c) > 0.1 and pred(d) < 0.2")
        assert evaluate(g_true, example_string, 6) is True
        assert evaluate(g_false, example_string, 6) is False


class TestGuardDepth:
    """parse_guard bounds the depth that evaluation and formatting recurse
    through: left-deep and/or chains, `not` and parentheses all count."""

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_deepest_chain_parses_evaluates_and_formats(self, op,
                                                        example_string):
        phi = parse_guard(f" {op} ".join(["hist(c) <= 1"] * MAX_GUARD_DEPTH))
        assert parse_guard(format_guard(phi)) == phi
        assert evaluate(phi, example_string, 6) is True  # hist(c) is 0.3

    @pytest.mark.parametrize("text", [
        " and ".join(["hist(c) <= 1"] * (MAX_GUARD_DEPTH + 1)),
        " or ".join(["hist(c) <= 1"] * 1200),
        " and ".join(["hist(c) < 1"] * 1200),
        "not " * MAX_GUARD_DEPTH + "true",
        "(" * MAX_GUARD_DEPTH + "true" + ")" * MAX_GUARD_DEPTH,
        "(" * 5000 + "true" + ")" * 5000,
        "not " * 5000 + "true",
        "(" * 60 + " and ".join(["true"] * 60) + ")" * 60,
    ], ids=["and-chain", "or-chain-1200", "sugared-chain-1200", "not-chain",
            "parentheses", "parentheses-5000", "not-chain-5000",
            "chain-in-parentheses"])
    def test_too_deep_is_rejected(self, text):
        with pytest.raises(ConstraintError, match="deeper than"):
            parse_guard(text)

    def test_depth_counts_nesting_and_sugar(self):
        just = MAX_GUARD_DEPTH - 1
        assert parse_guard("not " * just + "true") is not None
        assert parse_guard("(" * just + "true" + ")" * just) == TRUE
        # `x < b` desugars to a three-level And(<=, Not(>=)).
        sugared = " and ".join(["stackhist < 1"] * (MAX_GUARD_DEPTH - 2))
        assert parse_guard(sugared) is not None
        with pytest.raises(ConstraintError):
            parse_guard(sugared + " and stackhist < 1")
