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

Pair sets are bit matrices.  Source states are numbered 0..n-1 in
sorted-name order, and a pair set is one int with bit p*n+q set for the
pair (p, q), so row p holds the states paired with anchor p; a survivor set
is an n-bit mask.  A source step under one truth set is a relation: n
target masks, one per source state, whose images of whole state masks are
memoized.  Advancing a pair set, building the anchored diagonal of a call
entry and stepping on the empty stack are all such image lookups, one per
non-empty row.

At a return, the call, the inner well-nested behaviour and the return
compose into a pop summary, itself a relation.  It does not depend on the
context below the call (Alur and Madhusudan, Visibly pushdown languages,
STOC 2004), so the summaries are computed once per (inner pair set,
bracket, pushed truth set), the empty ones are dropped, and each of the
rest is applied to the outer pair set of every stack symbol that pushed
that bracket and truth set.  Names are built only at the boundary, from a
per-bit "(p,q)" table: ascending bits give pair_set_name's sorted order.

Reachability follows the transition graph with context tracking: matched
return transitions are emitted only for (state, stack symbol) combinations
that can actually co-occur, and bottom returns only for states reachable
with an empty stack.  Every collection it walks keeps insertion order, so
the rule order does not depend on the hash seed.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Optional, Sequence

from .constraints import (Atom, TRUE, atoms as guard_atoms,
                          assignment_feasible, eval_under, sorted_atoms, xi)
from .automata import (AutomatonError, CallRule, Ecidpda, InternalRule,
                       ReturnRule, Rule, RuleIndex)
from .timed import (Clock, ClockKind, TimedString,
                    longest_well_nested_suffix_start)

PairSet = frozenset[tuple[str, str]]
_BOTTOM = -1  # level key of the empty stack; states are positive ints


def pair_set_name(pairs: PairSet) -> str:
    inner = ",".join(f"({p},{q})" for p, q in sorted(pairs))
    return f"P{{{inner}}}"


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
    """Construction hooks consumed by the shared reachability driver.

    A state is an int.  0 is the dead state: it is absorbing and never
    accepts, so no rule is emitted into it.
    """

    alphabet: object
    universe_for: dict[str, tuple[Atom, ...]]
    subsets_for: dict[str, list[frozenset[Atom]]]
    initial: int
    internal_step: Callable  # (state, symbol, S) -> state
    call_step: Callable      # (state, symbol, S) -> (entry state, gamma)
    pop_steps: Callable      # (state, gamma) -> [(symbol, S, live state)]
    bottom_step: Callable    # (state, symbol, S) -> state
    accepting: Callable      # state -> bool
    state_name: Callable     # state -> str
    gamma_name: Callable     # gamma -> str


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

    # Dicts with None values serve as insertion-ordered sets.
    levels: dict[int, dict] = {}              # level key -> states seen in it
    gammas_at: dict[int, list] = {}           # entry level -> gammas popping to it
    pushed_from: dict[Hashable, dict] = {}    # gamma -> levels that push it
    pop_results: dict[Hashable, dict] = {}    # gamma -> pop successor states
    internal_exp: dict = {}
    call_exp: dict = {}
    names: dict[int, str] = {}
    gnames: dict[Hashable, str] = {}
    paired: set = set()                       # processed (gamma, state) pairs
    rules: list[Rule] = []
    worklist: list[tuple[int, int]] = []

    def name_of(state: int) -> str:
        name = names.get(state)
        if name is None:
            name = names[state] = bp.state_name(state)
        return name

    def gname_of(gamma: Hashable) -> str:
        name = gnames.get(gamma)
        if name is None:
            name = gnames[gamma] = bp.gamma_name(gamma)
        return name

    def visit(level: int, state: int) -> None:
        # The dead state is absorbing and never accepts, so cutting the run
        # off by omitting the transition rejects exactly the same strings.
        if not state:
            return
        bucket = levels.setdefault(level, {})
        if state not in bucket:
            bucket[state] = None
            worklist.append((level, state))

    def pop_with(state: int, gamma: Hashable) -> None:
        # Each (gamma, state) pair is expanded exactly once, so the emitted
        # return rules need no deduplication.
        if (gamma, state) in paired:
            return
        paired.add((gamma, state))
        name = name_of(state)
        gname = gnames[gamma]
        results = pop_results[gamma]
        for sym, s, nxt in bp.pop_steps(state, gamma):
            rules.append(ReturnRule(name, sym, gname, guards[sym][s],
                                    name_of(nxt)))
            if nxt not in results:
                results[nxt] = None
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
                for nxt in (bp.internal_step(state, sym, s),) if nxt]
            call_exp[state] = [
                (CallRule(name, sym, guards[sym][s], name_of(entry),
                          gname_of(gamma)), entry, gamma)
                for sym in calls for s in bp.subsets_for[sym]
                for entry, gamma in (bp.call_step(state, sym, s),) if entry]
            # Internal and call rules depend only on the state, so emit them
            # on first expansion; later levels only re-traverse successors.
            rules.extend(rule for rule, _ in internal_exp[state])
            rules.extend(rule for rule, _, _ in call_exp[state])
        for _rule, nxt in internal_exp[state]:
            visit(level, nxt)
        for _rule, entry, gamma in call_exp[state]:
            if gamma not in pushed_from:
                pushed_from[gamma] = {}
                pop_results[gamma] = {}
                gammas_at.setdefault(entry, []).append(gamma)
                visit(entry, entry)
                for inner in list(levels.get(entry, ())):
                    pop_with(inner, gamma)
            if level not in pushed_from[gamma]:
                pushed_from[gamma][level] = None
                for popped in list(pop_results[gamma]):
                    visit(level, popped)
        if level == _BOTTOM:
            name = name_of(state)
            for sym in returns:
                for s in bp.subsets_for[sym]:
                    nxt = bp.bottom_step(state, sym, s)
                    if not nxt:
                        continue
                    rules.append(ReturnRule(name, sym, None, guards[sym][s],
                                            name_of(nxt)))
                    visit(_BOTTOM, nxt)
        else:
            for gamma in list(gammas_at.get(level, ())):
                pop_with(state, gamma)

    # Every reached state was named on expansion, every pushed gamma when its
    # call rule was built, and nothing else was named.
    accepting = [name for state, name in names.items() if bp.accepting(state)]
    return Ecidpda(bp.alphabet, names.values(), [names[bp.initial]],
                   accepting, gnames.values(), rules)


# --- source-automaton relations ----------------------------------------------


class _Relation(dict):
    """A relation on source states 0..n-1: rows[q] is the target mask of q.

    Indexing by a mask of source states gives the union of their rows, its
    image, computed on first use and memoized.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[int, ...]):
        self.rows = rows  # the dict itself starts empty

    def __missing__(self, sources: int) -> int:
        image = self[sources] = _image(self.rows, sources)
        return image


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image(rows: Sequence[int], sources: int) -> int:
    """The union of the rows of the source states in a mask."""
    image = 0
    while sources:
        low = sources & -sources
        image |= rows[low.bit_length() - 1]
        sources ^= low
    return image


def _apply(rows: list[tuple[int, int]], rel: _Relation) -> int:
    """The pair set whose rows are the images of the given (shift, row)s."""
    out = 0
    for shift, targets in rows:
        out |= rel[targets] << shift
    return out


class _SourceTables:
    """The source automaton as bit relations, and pair-set operations on them.

    Step relations are memoized per (symbol, assignment, popped symbol).  An
    assignment is a frozenset of atoms taken as true; every other atom of a
    guard counts as false.  pop is the popped stack symbol of a return rule
    (None on the bottom).  Identical relations are shared, and with them
    their memoized images.
    """

    def __init__(self, a: Ecidpda):
        order = sorted(a.states)
        n = self.n = len(order)
        self.row = (1 << n) - 1              # mask of one pair-set row
        self.size = n * n                    # bits of a pair set
        self._index = {q: i for i, q in enumerate(order)}
        self._state_names = order
        self._pair_names = [f"({p},{q})" for p in order for q in order]
        # The image of a state mask is its anchored diagonal {(q, q)}.
        self.diagonal = _Relation(tuple(1 << (q * n + q) for q in range(n)))
        self._rules: dict[tuple[str, Optional[str]], list] = {}
        for rule in a.rules:
            pop = rule.pop if isinstance(rule, ReturnRule) else None
            push = rule.push if isinstance(rule, CallRule) else None
            self._rules.setdefault((rule.symbol, pop), []).append(
                (rule.guard, self._index[rule.src],
                 1 << self._index[rule.dst], push))
        self._steps: dict = {}
        self._pushes: dict = {}
        self._shared: dict[tuple[int, ...], _Relation] = {}

    def mask(self, states: frozenset[str]) -> int:
        found = 0
        for q in states:
            found |= 1 << self._index[q]
        return found

    def relation(self, rows: tuple[int, ...]) -> _Relation:
        rel = self._shared.get(rows)
        if rel is None:
            rel = self._shared[rows] = _Relation(rows)
        return rel

    def step(self, sym: str, s: frozenset[Atom], pop: Optional[str] = None
             ) -> _Relation:
        """Targets of each source state; for a call, over all pushes."""
        rel = self._steps.get((sym, pop, s))
        if rel is None:
            rel = self._evaluate(sym, s, pop)
        return rel

    def pushes(self, sym: str, s: frozenset[Atom]) -> list:
        """Per pushed source stack symbol of a call step: (symbol, target
        rows, union of the target rows)."""
        found = self._pushes.get((sym, s))
        if found is None:
            self._evaluate(sym, s, None)
            found = self._pushes[(sym, s)]
        return found

    def _evaluate(self, sym: str, s: frozenset[Atom], pop: Optional[str]
                  ) -> _Relation:
        # Each guard is evaluated once per (symbol, assignment, pop).
        rows = [0] * self.n
        by_push: dict[str, list[int]] = {}
        for guard, src, dst, push in self._rules.get((sym, pop), ()):
            if eval_under(guard, s):
                rows[src] |= dst
                if push is not None:
                    by_push.setdefault(push, [0] * self.n)[src] |= dst
        if pop is None:
            self._pushes[(sym, s)] = [
                (push, tuple(push_rows), _image(push_rows, self.row))
                for push, push_rows in by_push.items()]
        rel = self._steps[(sym, pop, s)] = self.relation(tuple(rows))
        return rel

    def rows(self, pairs: int) -> list[tuple[int, int]]:
        """(shift, row) for each anchor with a non-empty row: an outer pair
        set split once, for _apply to take the images of its rows under
        several pop summaries."""
        n, row = self.n, self.row
        found = []
        shift = 0
        while pairs:
            targets = pairs & row
            if targets:
                found.append((shift, targets))
            pairs >>= n
            shift += n
        return found

    def advance(self, pairs: int, rel: _Relation) -> int:
        """Each anchor's row of the pair set replaced by its image: _apply
        over rows(pairs) in one pass, as a step is applied only once."""
        n, row = self.n, self.row
        out = shift = 0
        while pairs:
            targets = pairs & row
            if targets:
                out |= rel[targets] << shift
            pairs >>= n
            shift += n
        return out

    def currents(self, pairs: int) -> int:
        """The states paired with some anchor."""
        n, row = self.n, self.row
        out = 0
        while pairs:
            out |= pairs & row
            pairs >>= n
        return out

    def summary(self, inner: int, pushes: list, sym: str,
                s_now: frozenset[Atom]) -> Optional[_Relation]:
        """Where (call, inner behaviour, return) can lead from each source
        state at the call, or None when nowhere: pushes are the call step's,
        and the return reads sym under s_now.

        A return relation is built only for a pushed symbol whose call
        reaches an anchor of inner, so each guard is evaluated only when the
        pop can be consulted.
        """
        exits = [inner >> shift & self.row
                 for shift in range(0, self.size, self.n)]
        anchors = 0
        for p, targets in enumerate(exits):
            if targets:
                anchors |= 1 << p
        out = [0] * self.n
        for pop, call_rows, reach in pushes:
            if reach & anchors:
                ret = self.step(sym, s_now, pop)
                after = [ret[targets] for targets in exits]
                for q, entries in enumerate(call_rows):
                    if entries & anchors:
                        out[q] |= _image(after, entries)
        return self.relation(tuple(out)) if any(out) else None

    def pair_name(self, pairs: int) -> str:
        names = self._pair_names
        return "P{" + ",".join([names[b] for b in _bits(pairs)]) + "}"

    def set_name(self, states: int) -> str:
        names = self._state_names
        return "R{" + ",".join([names[q] for q in _bits(states)]) + "}"


def _pop_summaries(src: _SourceTables, subsets_for: dict,
                   returns: list[str], call_truths: Callable) -> Callable:
    """(inner pair set, bracket, pushed truth set) -> the non-empty pop
    summaries [(return symbol, S, summary)], in emission order, memoized.

    call_truths(s_push, s_now) is the truth set the call is replayed under
    when the return reads s_now.
    """
    memo: dict = {}

    def summaries(inner: int, bracket: str, s_push) -> list:
        key = (inner, bracket, s_push)
        found = memo.get(key)
        if found is None:
            found = memo[key] = [
                (sym, s, f) for sym in returns for s in subsets_for[sym]
                for f in (src.summary(
                    inner, src.pushes(bracket, call_truths(s_push, s)),
                    sym, s),)
                if f is not None]
        return found

    return summaries


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
    src = _SourceTables(a)
    accepting = src.mask(a.accepting)
    summaries = _pop_summaries(src, subsets_for, sorted(a.alphabet.returns),
                               lambda s_push, _s_now: s_push)

    def internal_step(pairs: int, sym: str, s) -> int:
        return src.advance(pairs, src.step(sym, s))

    def call_step(pairs: int, sym: str, s):
        entry = src.diagonal[src.step(sym, s)[src.currents(pairs)]]
        # A call symbol is read only by call rules, so s holds only atoms its
        # call guards test; the matching return replays the call under s.
        return entry, (pairs, sym, s)

    def pop_steps(pairs: int, gamma) -> list:
        outer, bracket, s_push = gamma
        rows = src.rows(outer)
        return [(sym, s, nxt)
                for sym, s, f in summaries(pairs, bracket, s_push)
                for nxt in (_apply(rows, f),) if nxt]

    def bottom_step(pairs: int, sym: str, s) -> int:
        # An unmatched return empties the well-nested suffix, so the anchors
        # reset to the current states, mirroring the pair-set semantics.
        return src.diagonal[src.step(sym, s)[src.currents(pairs)]]

    def gamma_name(gamma) -> str:
        outer, bracket, s_push = gamma
        return (f"K{{{src.pair_name(outer)};{bracket};"
                f"{truth_set_name(universe, s_push)}}}")

    bp = _Blueprint(
        alphabet=a.alphabet,
        universe_for=universe_for,
        subsets_for=subsets_for,
        initial=src.diagonal[src.mask(a.initial)],
        internal_step=internal_step,
        call_step=call_step,
        pop_steps=pop_steps,
        bottom_step=bottom_step,
        accepting=lambda pairs: bool(src.currents(pairs) & accepting),
        state_name=src.pair_name,
        gamma_name=gamma_name,
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
    src = _SourceTables(a)
    accepting = src.mask(a.accepting)
    # The call is replayed with its stack prediction truths read off the
    # mirrored stack history truths at the return.
    summaries = _pop_summaries(
        src, subsets_for, sorted(a.alphabet.returns),
        lambda s_push, s_now: s_push | _mirrored_prediction_atoms(s_now))
    # A state is one int: its pair set, then its survivor mask above it.
    width, pair_bits = src.size, (1 << src.size) - 1

    def internal_step(state: int, sym: str, s) -> int:
        rel = src.step(sym, s)
        return (src.advance(state & pair_bits, rel)
                | rel[state >> width] << width)

    def call_step(state: int, sym: str, s):
        survivors = state >> width
        # The matching return will replay the call under some valuation of
        # its stack prediction atoms, so only call targets reachable under
        # one of those valuations can ever be consulted as anchors; the
        # entry diagonal ranges over exactly them.
        sources = src.currents(state & pair_bits) | survivors
        anchors = 0
        for v in sp_valuations[sym]:
            anchors |= src.step(sym, s | v)[sources]
        entry = src.diagonal[anchors] | src.step(sym, s)[survivors] << width
        # Stack prediction atoms never occur in s; the matching return adds
        # them back from the mirrored stack history truths.
        return entry, (state, sym, s)

    def pop_steps(state: int, gamma) -> list:
        outer, bracket, s_push = gamma
        rows, survivors = src.rows(outer & pair_bits), outer >> width
        return [(sym, s, nxt) for sym, s, f
                in summaries(state & pair_bits, bracket, s_push)
                for nxt in (_apply(rows, f) | f[survivors] << width,)
                if nxt]

    def bottom_step(state: int, sym: str, s) -> int:
        after = src.step(sym, s)[state >> width]
        # On an empty stack no bracket is pending, so the survivor set is the
        # exact current state set and the new anchors are exactly it.
        return src.diagonal[after] | after << width

    def state_name(state: int) -> str:
        return (f"{src.pair_name(state & pair_bits)}|"
                f"{src.set_name(state >> width)}")

    def gamma_name(gamma) -> str:
        outer, bracket, s_push = gamma
        return (f"K{{{state_name(outer)};{bracket};"
                f"{truth_set_name(universe, s_push)}}}")

    initial = src.mask(a.initial)
    bp = _Blueprint(
        alphabet=a.alphabet,
        universe_for=universe_for,
        subsets_for=subsets_for,
        initial=src.diagonal[initial] | initial << width,
        internal_step=internal_step,
        call_step=call_step,
        pop_steps=pop_steps,
        bottom_step=bottom_step,
        accepting=lambda state: bool(state >> width & accepting),
        state_name=state_name,
        gamma_name=gamma_name,
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
