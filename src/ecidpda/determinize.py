"""Two determinization constructions over lazily materialized state sets.

Both track pair sets P of source states: (state when the current
well-nested suffix began, state now).  They enumerate, per materialized
state, every truth assignment S to the atomic constraints and guard the
emitted transition with xi(S): the constraint asserting that exactly the
atoms of S hold.  The direct construction stores S in the stack at each
call; with no atoms (every guard `true`) it is the untimed pair-set
determinization, which `determinize_untimed` runs after checking that
precondition.  The stack-prediction-free version augments each state with
a survivor set R tracking computations under the assumption that every
open bracket stays unmatched.

Reachability follows the transition graph with context tracking: matched
return transitions are emitted only for (state, stack symbol) combinations
that can actually co-occur, and bottom returns only for states reachable
with an empty stack.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from .constraints import (Atom, TRUE, atoms as guard_atoms,
                          assignment_feasible, eval_under, sorted_atoms, xi)
from .automata import (AutomatonError, CallRule, Ecidpda, InternalRule,
                       ReturnRule, Rule, RuleIndex)
from .timed import (Clock, ClockKind, TimedString,
                    longest_well_nested_suffix_start)

PairSet = frozenset[tuple[str, str]]
_BOTTOM = object()  # context marker: empty stack


def pair_set_name(pairs: PairSet) -> str:
    inner = ",".join(f"({p},{q})" for p, q in sorted(pairs))
    return f"P{{{inner}}}"


def augmented_name(pairs: PairSet, survivors: frozenset[str]) -> str:
    return f"{pair_set_name(pairs)}|R{{{','.join(sorted(survivors))}}}"


def truth_set_name(universe: tuple[Atom, ...], members: frozenset[Atom]) -> str:
    inner = ",".join(str(a) for a in universe if a in members)
    return f"S{{{inner}}}"


def parse_pair_set_name(name: str) -> PairSet:
    """Inverse of pair_set_name (the part before any |R{...} suffix)."""
    body = name.split("|", 1)[0]
    if not (body.startswith("P{") and body.endswith("}")):
        raise ValueError(f"not a pair-set state name: {name!r}")
    pairs = re.findall(r"\(([^,()]*),([^,()]*)\)", body[2:-1])
    return frozenset((p, q) for p, q in pairs)


def parse_survivor_name(name: str) -> frozenset[str]:
    """The R{...} component of an augmented state name."""
    _, _, body = name.partition("|")
    if not (body.startswith("R{") and body.endswith("}")):
        raise ValueError(f"not an augmented state name: {name!r}")
    inner = body[2:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


@dataclass
class _Blueprint:
    """Construction hooks consumed by the shared reachability driver."""

    alphabet: object
    universe_for: dict[str, tuple[Atom, ...]]
    subsets_for: dict[str, list[frozenset[Atom]]]
    initial: Hashable
    internal_step: Callable  # (state, symbol, S) -> state
    call_step: Callable      # (state, symbol, S) -> (entry state, gamma)
    return_step: Callable    # (state, gamma, symbol, S) -> state
    bottom_step: Callable    # (state, symbol, S) -> state
    accepting: Callable      # state -> bool
    state_name: Callable     # state -> str
    gamma_name: Callable     # gamma -> str
    dead: Callable           # state -> bool: absorbing and never accepting


def _feasible_subsets(universe: tuple[Atom, ...]) -> list[frozenset[Atom]]:
    subsets: list[frozenset[Atom]] = []
    for mask in range(1 << len(universe)):
        s = frozenset(a for bit, a in enumerate(universe) if mask >> bit & 1)
        if assignment_feasible(universe, s):
            subsets.append(s)
    return subsets


def _run_blueprint(bp: _Blueprint) -> Ecidpda:
    """Reachability over levels keyed by their entry state.

    Every level entered by pushing a stack symbol explores the same states as
    any other level with the same entry state, so same-level reachability is
    computed once per distinct entry (bottom separately) and shared by all
    stack symbols entering it.  Pop successors propagate to every level that
    pushed the popped symbol.
    """
    # Truth subsets and guards are per symbol: a transition only needs to
    # branch on the atoms some source guard actually tests on that symbol.
    guards = {sym: {s: xi(bp.universe_for[sym], s)
                    for s in bp.subsets_for[sym]}
              for sym in bp.alphabet.symbols}
    internals = sorted(bp.alphabet.internals)
    calls = sorted(bp.alphabet.calls)
    returns = sorted(bp.alphabet.returns)

    levels: dict[object, set] = {}            # level key -> states seen in it
    gammas_at: dict[object, list] = {}        # entry level -> symbols popping to it
    pushed_from: dict[Hashable, set] = {}     # gamma -> levels that push it
    pop_results: dict[Hashable, set] = {}     # gamma -> pop successor states
    internal_exp: dict = {}
    call_exp: dict = {}
    names: dict = {}
    paired: set = set()                       # processed (gamma, state) pairs
    rules: list[Rule] = []
    worklist: list[tuple[object, Hashable]] = []

    gnames: dict = {}

    def name_of(state: Hashable) -> str:
        name = names.get(state)
        if name is None:
            name = names[state] = bp.state_name(state)
        return name

    def gname_of(gamma: Hashable) -> str:
        name = gnames.get(gamma)
        if name is None:
            name = gnames[gamma] = bp.gamma_name(gamma)
        return name

    def visit(level: object, state: Hashable) -> None:
        # Dead states are absorbing and never accept, so cutting the run off
        # by omitting the transition rejects exactly the same strings.
        if bp.dead(state):
            return
        bucket = levels.setdefault(level, set())
        if state not in bucket:
            bucket.add(state)
            worklist.append((level, state))

    def pop_with(state: Hashable, gamma: Hashable) -> None:
        # Each (gamma, state) pair is expanded exactly once, so the emitted
        # return rules need no deduplication.
        if (gamma, state) in paired:
            return
        paired.add((gamma, state))
        name = name_of(state)
        gname = gname_of(gamma)
        for sym in returns:
            for s in bp.subsets_for[sym]:
                nxt = bp.return_step(state, gamma, sym, s)
                if bp.dead(nxt):
                    continue
                rules.append(ReturnRule(name, sym, gname, guards[sym][s],
                                        name_of(nxt)))
                if nxt not in pop_results[gamma]:
                    pop_results[gamma].add(nxt)
                    for outer in pushed_from[gamma]:
                        visit(outer, nxt)

    visit(_BOTTOM, bp.initial)
    while worklist:
        level, state = worklist.pop()
        if state not in internal_exp:
            name = name_of(state)
            internal_exp[state] = [
                (InternalRule(name, sym, guards[sym][s], name_of(nxt)), nxt)
                for sym in internals for s in bp.subsets_for[sym]
                for nxt in (bp.internal_step(state, sym, s),)
                if not bp.dead(nxt)]
            call_exp[state] = [
                (CallRule(name, sym, guards[sym][s], name_of(entry),
                          gname_of(gamma)), entry, gamma)
                for sym in calls for s in bp.subsets_for[sym]
                for entry, gamma in (bp.call_step(state, sym, s),)
                if not bp.dead(entry)]
            # Internal and call rules depend only on the state, so emit them
            # on first expansion; later levels only re-traverse successors.
            rules.extend(rule for rule, _ in internal_exp[state])
            rules.extend(rule for rule, _, _ in call_exp[state])
        for _rule, nxt in internal_exp[state]:
            visit(level, nxt)
        for _rule, entry, gamma in call_exp[state]:
            if gamma not in pushed_from:
                pushed_from[gamma] = set()
                pop_results[gamma] = set()
                gammas_at.setdefault(entry, []).append(gamma)
                visit(entry, entry)
                for inner in list(levels.get(entry, ())):
                    pop_with(inner, gamma)
            if level not in pushed_from[gamma]:
                pushed_from[gamma].add(level)
                for popped in list(pop_results[gamma]):
                    visit(level, popped)
        if level is _BOTTOM:
            name = name_of(state)
            for sym in returns:
                for s in bp.subsets_for[sym]:
                    nxt = bp.bottom_step(state, sym, s)
                    if bp.dead(nxt):
                        continue
                    rules.append(ReturnRule(name, sym, None, guards[sym][s],
                                            name_of(nxt)))
                    visit(_BOTTOM, nxt)
        else:
            for gamma in list(gammas_at.get(level, ())):
                pop_with(state, gamma)

    reached = set().union(*levels.values()) if levels else {bp.initial}
    states = {bp.state_name(st) for st in reached}
    accepting = {bp.state_name(st) for st in reached if bp.accepting(st)}
    stack = {bp.gamma_name(g) for g in pushed_from}
    return Ecidpda(bp.alphabet, states, [bp.state_name(bp.initial)],
                   accepting, stack, rules)


# --- source-automaton step tables --------------------------------------------


class _SourceTables:
    """Per-(symbol, popped symbol, assignment) step maps of the source
    automaton, memoized.

    An assignment is a frozenset of atoms taken as true; every other atom of
    a guard counts as false.  A call map sends a state to its (target state,
    pushed source stack symbol) pairs, any other map to its target states;
    pop is the popped stack symbol of a return rule (None on the bottom).
    """

    def __init__(self, a: Ecidpda):
        self._rules: dict[tuple[str, Optional[str]], list] = {}
        for rule in a.rules:
            pop = rule.pop if isinstance(rule, ReturnRule) else None
            out = (rule.dst, rule.push) if isinstance(rule, CallRule) \
                else rule.dst
            self._rules.setdefault((rule.symbol, pop), []).append(
                (rule.guard, rule.src, out))
        self._memo: dict = {}

    def step(self, sym: str, s: frozenset[Atom], pop: Optional[str] = None
             ) -> dict[str, frozenset]:
        key = (sym, pop, s)
        table = self._memo.get(key)
        if table is None:
            found: dict[str, set] = {}
            for guard, src, out in self._rules.get((sym, pop), ()):
                if eval_under(guard, s):
                    found.setdefault(src, set()).add(out)
            table = self._memo[key] = {q: frozenset(v)
                                       for q, v in found.items()}
        return table


def _advance_pairs(pairs: PairSet, table: dict[str, frozenset[str]]) -> PairSet:
    return frozenset((p, q2) for p, q in pairs for q2 in table.get(q, ()))


def _advance_set(states: frozenset[str], table: dict[str, frozenset[str]]
                 ) -> frozenset[str]:
    return frozenset(q2 for q in states for q2 in table.get(q, ()))


def _pop_summary(inner: PairSet,
                 call_table: dict[str, frozenset[tuple[str, str]]],
                 ret_for: Callable[[str], dict[str, frozenset[str]]]
                 ) -> dict[str, frozenset[str]]:
    """Per source state at the call, where (call, inner behaviour, return)
    can lead; ret_for(pop) is the return step map for one popped symbol.

    The summary does not depend on the context below the call, so callers
    memoize it and apply it to many outer pair sets.
    """
    inner_by_entry: dict[str, set[str]] = {}
    for p2, q2 in inner:
        inner_by_entry.setdefault(p2, set()).add(q2)
    out: dict[str, frozenset[str]] = {}
    for q, targets in call_table.items():
        acc: set[str] = set()
        for p2, pushed in targets:
            exits = inner_by_entry.get(p2)
            if not exits:
                continue
            ret_table = ret_for(pushed)
            for q2 in exits:
                acc.update(ret_table.get(q2, ()))
        if acc:
            out[q] = frozenset(acc)
    return out


def _symbol_guard_atoms(a: Ecidpda) -> dict[str, set[Atom]]:
    """Per input symbol, the atoms appearing in guards of rules reading it."""
    result: dict[str, set[Atom]] = {sym: set() for sym in a.alphabet.symbols}
    for rule in a.rules:
        result[rule.symbol] |= guard_atoms(rule.guard)
    return result


# --- Construction 1: direct event-clock determinization -----------------------


def determinize_untimed(a: Ecidpda) -> Ecidpda:
    """Pair-set determinization for automata whose guards are all TRUE: the
    direct construction with an empty atom universe.

    Output states are reachable subsets of Q x Q; stack symbols pair the read
    bracket with the pushed simulation context (and the empty truth set).
    """
    for rule in a.rules:
        if rule.guard is not TRUE and rule.guard != TRUE:
            raise AutomatonError(
                "untimed determinization requires all guards to be true")
    return _direct(a)


def determinize_direct(a: Ecidpda) -> Ecidpda:
    """Pair-set determinization storing the truth of every atomic constraint
    in the stack at each call, so the call transition of the source can be
    replayed when the matching return is read.
    """
    return _direct(a)


def _direct(a: Ecidpda) -> Ecidpda:
    # Both public entry points call this body rather than each other, so each
    # call is traced as exactly one determinize_* span.
    universe = sorted_atoms(a.atom_set())
    universe_for = {sym: sorted_atoms(atoms_of)
                    for sym, atoms_of in _symbol_guard_atoms(a).items()}
    subsets_for = {sym: _feasible_subsets(u)
                   for sym, u in universe_for.items()}
    tables = _SourceTables(a)

    def internal_step(pairs: PairSet, sym: str, s) -> PairSet:
        return _advance_pairs(pairs, tables.step(sym, s))

    def call_step(pairs: PairSet, sym: str, s):
        call_table = tables.step(sym, s)
        entry = frozenset((q2, q2) for _, q in pairs
                          for q2, _gamma in call_table.get(q, ()))
        # A call symbol is read only by call rules, so s holds only atoms its
        # call guards test; the matching return replays the call under s.
        return entry, (pairs, sym, s)

    summaries: dict = {}

    def return_step(pairs: PairSet, gamma, sym: str, s_now) -> PairSet:
        outer, bracket, s_push = gamma
        key = (pairs, bracket, s_push, sym, s_now)
        f = summaries.get(key)
        if f is None:
            f = summaries[key] = _pop_summary(
                pairs, tables.step(bracket, s_push),
                lambda pop: tables.step(sym, s_now, pop))
        return frozenset((p, q2) for p, q in outer for q2 in f.get(q, ()))

    def bottom_step(pairs: PairSet, sym: str, s) -> PairSet:
        # An unmatched return empties the well-nested suffix, so the anchors
        # reset to the current states, mirroring the pair-set semantics.
        table = tables.step(sym, s)
        return frozenset((q2, q2) for _, q in pairs for q2 in table.get(q, ()))

    def gamma_name(gamma) -> str:
        outer, bracket, s_push = gamma
        return (f"K{{{pair_set_name(outer)};{bracket};"
                f"{truth_set_name(universe, s_push)}}}")

    bp = _Blueprint(
        alphabet=a.alphabet,
        universe_for=universe_for,
        subsets_for=subsets_for,
        initial=frozenset((q, q) for q in a.initial),
        internal_step=internal_step,
        call_step=call_step,
        return_step=return_step,
        bottom_step=bottom_step,
        accepting=lambda pairs: any(q in a.accepting for _, q in pairs),
        state_name=pair_set_name,
        gamma_name=gamma_name,
        dead=lambda pairs: not pairs,
    )
    return _run_blueprint(bp)


# --- Construction 2: determinization without stack prediction clocks ----------


def _mirror_atom(a: Atom) -> Atom:
    return Atom(Clock(ClockKind.STACK_HISTORY), a.op, a.bound)


def _mirrored_prediction_atoms(true_set: frozenset[Atom]) -> frozenset[Atom]:
    """Stack-prediction truths at a call, read off the stack-history truths
    observed at its matching return.
    """
    return frozenset(
        Atom(Clock(ClockKind.STACK_PREDICTION), a.op, a.bound)
        for a in true_set if a.clock.kind is ClockKind.STACK_HISTORY)


def determinize_no_stack_prediction(a: Ecidpda) -> Ecidpda:
    """Determinization whose output never consults the stack prediction
    clock.

    Verification of stack-prediction guards at a call is deferred to the
    matching return, where the elapsed call-return time shows up on the
    stack history clock; a survivor component R handles the case of brackets
    that never close.
    """
    source_atoms = a.atom_set()
    sp_atoms = {x for x in source_atoms
                if x.clock.kind is ClockKind.STACK_PREDICTION}
    # The deferred check reads stack-prediction truths off mirrored
    # stack-history atoms, so those mirrors must be tracked even when the
    # source never tests them itself.
    tracked = (source_atoms - sp_atoms) | {_mirror_atom(x) for x in sp_atoms}
    universe = sorted_atoms(tracked)
    tables = _SourceTables(a)
    # A call symbol is read only by call rules, so its entry holds exactly
    # the atoms its call guards test.
    symbol_atoms = _symbol_guard_atoms(a)
    # Per-symbol universes: prediction atoms are dropped everywhere (they are
    # undefined off call positions and deferred at call positions); return
    # symbols additionally track the mirrors of every prediction atom some
    # call guard tests, since the deferred check happens at the pop.
    deferred_mirrors = {_mirror_atom(x) for sym in a.alphabet.calls
                        for x in symbol_atoms[sym]
                        if x.clock.kind is ClockKind.STACK_PREDICTION}
    universe_for = {}
    for sym, atoms_of in symbol_atoms.items():
        kept = {x for x in atoms_of
                if x.clock.kind is not ClockKind.STACK_PREDICTION}
        if sym in a.alphabet.returns:
            kept |= deferred_mirrors
        universe_for[sym] = sorted_atoms(kept)
    subsets_for = {sym: _feasible_subsets(u)
                   for sym, u in universe_for.items()}
    sp_valuations = {
        sym: [frozenset(v) for size in range(len(sp) + 1)
              for v in itertools.combinations(sorted_atoms(sp), size)]
        for sym in a.alphabet.calls
        for sp in [{x for x in symbol_atoms[sym]
                    if x.clock.kind is ClockKind.STACK_PREDICTION}]}

    State = tuple  # (PairSet, frozenset of survivors)

    def internal_step(state: State, sym: str, s) -> State:
        pairs, survivors = state
        table = tables.step(sym, s)
        return (_advance_pairs(pairs, table), _advance_set(survivors, table))

    def call_step(state: State, sym: str, s):
        pairs, survivors = state
        call_table = tables.step(sym, s)
        new_survivors = frozenset(q2 for q in survivors
                                  for q2, _g in call_table.get(q, ()))
        # The matching return will replay the call under some valuation of
        # its stack prediction atoms, so only call targets reachable under
        # one of those valuations can ever be consulted as anchors; the
        # entry diagonal ranges over exactly them.
        sources = {q for _, q in pairs} | survivors
        anchors = {q2 for v in sp_valuations[sym]
                   for q in sources
                   for q2, _g in tables.step(sym, s | v).get(q, ())}
        entry = frozenset((q, q) for q in anchors)
        # Stack prediction atoms never occur in s; the matching return adds
        # them back from the mirrored stack history truths.
        return ((entry, new_survivors), (pairs, survivors, sym, s))

    summaries: dict = {}

    def return_step(state: State, gamma, sym: str, s_now) -> State:
        inner_pairs, _discarded = state
        outer_pairs, outer_survivors, bracket, s_push = gamma
        s_call = s_push | _mirrored_prediction_atoms(s_now)
        key = (inner_pairs, bracket, s_call, sym, s_now)
        f = summaries.get(key)
        if f is None:
            f = summaries[key] = _pop_summary(
                inner_pairs, tables.step(bracket, s_call),
                lambda pop: tables.step(sym, s_now, pop))
        new_pairs = frozenset((p, q2) for p, q in outer_pairs
                              for q2 in f.get(q, ()))
        new_survivors = frozenset(q2 for q in outer_survivors
                                  for q2 in f.get(q, ()))
        return (new_pairs, new_survivors)

    def bottom_step(state: State, sym: str, s) -> State:
        _, survivors = state
        after = _advance_set(survivors, tables.step(sym, s))
        # On an empty stack no bracket is pending, so the survivor set is the
        # exact current state set and the new anchors are exactly it.
        return (frozenset((q, q) for q in after), after)

    def gamma_name(gamma) -> str:
        outer, survivors, bracket, s_push = gamma
        return (f"K{{{augmented_name(outer, survivors)};{bracket};"
                f"{truth_set_name(universe, s_push)}}}")

    bp = _Blueprint(
        alphabet=a.alphabet,
        universe_for=universe_for,
        subsets_for=subsets_for,
        initial=(frozenset((q, q) for q in a.initial), frozenset(a.initial)),
        internal_step=internal_step,
        call_step=call_step,
        return_step=return_step,
        bottom_step=bottom_step,
        accepting=lambda st: bool(st[1] & a.accepting),
        state_name=lambda st: augmented_name(st[0], st[1]),
        gamma_name=gamma_name,
        dead=lambda st: not st[0] and not st[1],
    )
    return _run_blueprint(bp)


# --- brute-force oracle for the pair-set semantics ----------------------------


def pair_semantics_oracle(a: Ecidpda, w: TimedString, i: int
                          ) -> frozenset[tuple[str, str]]:
    """All (anchor, current) state pairs over computations of the source on
    the length-i prefix, clocks evaluated against the whole string; the
    anchor is the state held when the longest well-nested suffix of the
    prefix began.
    """
    if not 0 <= i <= len(w):
        raise IndexError(f"prefix length {i} out of range 0..{len(w)}")
    start = longest_well_nested_suffix_start(w, i)
    index = RuleIndex(a)
    # items: (anchor or None, configuration)
    items: set[tuple[Optional[str], str, tuple[str, ...]]] = {
        (None, q, ()) for q in a.initial}
    if start == 1:
        items = {(q, q, st) for _, q, st in items}
    for pos in range(1, i + 1):
        stepped = set()
        for anchor, q, st in items:
            for q2, st2 in index.step({(q, st)}, w, pos):
                stepped.add((anchor, q2, st2))
        items = stepped
        if pos == start - 1:
            items = {(q, q, st) for _, q, st in items}
    return frozenset((anchor, q) for anchor, q, _ in items)
