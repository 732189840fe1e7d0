"""Seeded random automata and timed strings for differential testing."""

from __future__ import annotations

import random
from fractions import Fraction

from .automata import CallRule, Ecidpda, InternalRule, ReturnRule, Rule
from .constraints import And, Constraint, Not, Or, TRUE, atom
from .timed import Clock, ClockKind, PartitionedAlphabet, TimedString

DEFAULT_ALPHABET = PartitionedAlphabet({"<"}, {">"}, {"c", "d"})
GUARD_DEPTH = 3

_BOUND_POOL = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
               Fraction(2)]


def random_clock(rng: random.Random, alphabet: PartitionedAlphabet) -> Clock:
    kind = rng.choice(list(ClockKind))
    if kind in (ClockKind.SYMBOL_HISTORY, ClockKind.SYMBOL_PREDICTION):
        return Clock(kind, rng.choice(sorted(alphabet.symbols)))
    return Clock(kind)


def random_guard(rng: random.Random, atom_pool: list, depth: int) -> Constraint:
    """A random guard over a fixed pool of atoms; 30% of guards are TRUE so
    random languages are nonempty often enough.
    """
    if rng.random() < 0.3 or not atom_pool:
        return TRUE
    return _random_formula(rng, atom_pool, depth)


def _random_formula(rng: random.Random, atom_pool: list, depth: int) -> Constraint:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(atom_pool)
    pick = rng.random()
    if pick < 0.4:
        return And(_random_formula(rng, atom_pool, depth - 1),
                   _random_formula(rng, atom_pool, depth - 1))
    if pick < 0.8:
        return Or(_random_formula(rng, atom_pool, depth - 1),
                  _random_formula(rng, atom_pool, depth - 1))
    return Not(_random_formula(rng, atom_pool, depth - 1))


def random_automaton(rng: random.Random, *, max_states: int = 3,
                     max_stack: int = 2, max_atoms: int = 3,
                     timed: bool = True) -> Ecidpda:
    """A random ECIDPDA over DEFAULT_ALPHABET with at least one initial and
    one accepting state, and guards at most GUARD_DEPTH levels deep."""
    alphabet = DEFAULT_ALPHABET
    n_states = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n_states)]
    n_stack = rng.randint(1, max_stack)
    stack = [f"g{i}" for i in range(n_stack)]
    initial = {rng.choice(states)}
    for q in states:
        if rng.random() < 0.3:
            initial.add(q)
    accepting = {rng.choice(states)}
    for q in states:
        if rng.random() < 0.3:
            accepting.add(q)

    atom_pool = []
    if timed:
        for _ in range(rng.randint(0, max_atoms)):
            atom_pool.append(atom(random_clock(rng, alphabet),
                                  rng.choice(["<=", ">="]),
                                  rng.choice(_BOUND_POOL)))

    def guard() -> Constraint:
        if not timed:
            return TRUE
        return random_guard(rng, atom_pool, GUARD_DEPTH)

    # Sparse rule sampling: dense call/return nondeterminism makes the
    # determinized pair-set space explode combinatorially, which buries the
    # interesting cases under megabyte-sized outputs.  Low densities keep
    # outputs small while still exercising every rule kind and overlap.
    rules: list[Rule] = []
    density = rng.uniform(0.1, 0.45)
    for q in states:
        for sym in sorted(alphabet.internals):
            for dst in states:
                if rng.random() < density:
                    rules.append(InternalRule(q, sym, guard(), dst))
        for sym in sorted(alphabet.calls):
            for dst in states:
                if rng.random() < density * 0.8:
                    rules.append(CallRule(q, sym, guard(), dst,
                                          rng.choice(stack)))
        for sym in sorted(alphabet.returns):
            for pop in stack + [None]:
                for dst in states:
                    if rng.random() < density * 0.6:
                        rules.append(ReturnRule(q, sym, pop, guard(), dst))
    return Ecidpda(alphabet, states, initial, accepting, stack, rules)


def random_timed_string(rng: random.Random,
                        alphabet: PartitionedAlphabet = DEFAULT_ALPHABET,
                        max_len: int = 12) -> TimedString:
    """A random timed string with rational timestamps; bracket patterns are
    unconstrained, so ill-nested strings (both unmatched kinds) occur.
    """
    length = rng.randint(0, max_len)
    symbols = sorted(alphabet.symbols)
    events = []
    t = Fraction(0)
    for _ in range(length):
        t += Fraction(rng.randint(1, 8), 4)
        events.append((rng.choice(symbols), t))
    return TimedString(alphabet, events)
