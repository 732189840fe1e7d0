"""Two determinization constructions over lazily materialized state sets.

Both track pair sets P of source states: (state when the current
well-nested suffix began, state now).  Per materialized state and symbol
they enumerate every feasible truth assignment S to the atoms the symbol's
guards test, and guard the emitted transition with xi(S): the constraint
asserting that exactly the atoms of S hold.

Each construction is one class.  `_Direct` holds the source as bit
relations, the construction's step hooks and `run()`, the reachability
search; it stores S in the stack at each call.  With no atoms (every guard
`true`) it is the untimed pair-set determinization, which
`determinize_untimed` runs after checking that precondition.
`_NoStackPrediction` subclasses it: each state gains a survivor set R,
tracking computations under the assumption that every open bracket stays
unmatched, and a return replays its call with the stack-prediction truths
read off the mirrored stack-history truths.  It overrides the per-symbol
atom universes, the step hooks, acceptance and state names.

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
"""

from __future__ import annotations

import itertools
import re
from typing import Hashable, Iterator, Optional, Sequence

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


def truth_set_name(members: frozenset[Atom]) -> str:
    inner = ",".join(str(a) for a in sorted_atoms(members))
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


def _feasible_subsets(universe: tuple[Atom, ...]) -> list[frozenset[Atom]]:
    subsets: list[frozenset[Atom]] = []
    for mask in range(1 << len(universe)):
        s = frozenset(a for bit, a in enumerate(universe) if mask >> bit & 1)
        if assignment_feasible(universe, s):
            subsets.append(s)
    return subsets


def _symbol_guard_atoms(a: Ecidpda) -> dict[str, set[Atom]]:
    """Per input symbol, the atoms appearing in guards of rules reading it."""
    result: dict[str, set[Atom]] = {sym: set() for sym in a.alphabet.symbols}
    for rule in a.rules:
        result[rule.symbol] |= guard_atoms(rule.guard)
    return result


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


# --- Construction 1: direct event-clock determinization -----------------------


class _Direct:
    """The direct construction: the source as bit relations, the step hooks
    and the reachability search run().

    A state is an int, a pair set; 0 is the dead state.  A stack symbol
    (gamma) is (outer state, bracket, pushed truth set).  guards[sym] maps
    each feasible truth set S of the symbol's atoms to xi(S), in emission
    order.  Step relations are memoized per (symbol, S, popped symbol or
    None on the bottom), S being the atoms taken as true; identical
    relations are shared, and with them their memoized images.
    """

    def __init__(self, a: Ecidpda):
        self.alphabet = a.alphabet
        self.returns = sorted(a.alphabet.returns)
        order = sorted(a.states)
        n = self.n = len(order)
        self.row = (1 << n) - 1              # mask of one pair-set row
        self.size = n * n                    # bits of a pair set
        self.pair_bits = (1 << self.size) - 1  # mask of a whole pair set
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
        self._summaries: dict = {}
        self.initial = self.mask(a.initial)
        self.final = self.mask(a.accepting)
        # Truth sets and guards are per symbol: a transition only needs to
        # branch on the atoms some source guard actually tests on that symbol.
        universe_for = self.universes(a)
        self.guards = {sym: {s: xi(u, s) for s in _feasible_subsets(u)}
                       for sym, u in universe_for.items()}

    def universes(self, a: Ecidpda) -> dict[str, tuple[Atom, ...]]:
        """Per symbol, the atoms its truth sets range over."""
        return {sym: sorted_atoms(atoms_of)
                for sym, atoms_of in _symbol_guard_atoms(a).items()}

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

    def pushes(self, sym: str, s: frozenset[Atom]) -> list:
        """Per pushed source stack symbol of a call step: (symbol, target
        rows, union of the target rows)."""
        found = self._pushes.get((sym, s))
        if found is None:
            self.step(sym, s)
            found = self._pushes[(sym, s)]
        return found

    def step(self, sym: str, s: frozenset[Atom], pop: Optional[str] = None
             ) -> _Relation:
        """Targets of each source state; for a call, over all pushes."""
        rel = self._steps.get((sym, pop, s))
        if rel is not None:
            return rel
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

    def summaries(self, inner: int, bracket: str, s_push) -> list:
        """The non-empty pop summaries [(return symbol, S, summary)] of an
        inner pair set under a pushed bracket and truth set, in emission
        order, memoized: they do not depend on the context below the call.

        A summary relates each source state at the call to where (call,
        inner behaviour, return) can lead from it.  A return relation is
        built only for a pushed symbol whose call reaches an anchor of
        inner, so each guard is evaluated only when the pop can be consulted.
        """
        key = (inner, bracket, s_push)
        found = self._summaries.get(key)
        if found is not None:
            return found
        exits = [inner >> shift & self.row
                 for shift in range(0, self.size, self.n)]
        anchors = 0
        for p, targets in enumerate(exits):
            if targets:
                anchors |= 1 << p
        found = self._summaries[key] = []
        for sym in self.returns:
            for s in self.guards[sym]:
                out = [0] * self.n
                for pop, call_rows, reach in self.pushes(
                        bracket, self.call_truths(s_push, s)):
                    if reach & anchors:
                        ret = self.step(sym, s, pop)
                        after = [ret[targets] for targets in exits]
                        for q, entries in enumerate(call_rows):
                            if entries & anchors:
                                out[q] |= _image(after, entries)
                if any(out):
                    found.append((sym, s, self.relation(tuple(out))))
        return found

    def call_truths(self, s_push, s_now):
        """The truth set the call is replayed under when its matching return
        reads s_now."""
        return s_push

    def start(self, initial: int) -> int:
        return self.diagonal[initial]

    def internal_step(self, pairs: int, sym: str, s) -> int:
        return self.advance(pairs, self.step(sym, s))

    def call_step(self, pairs: int, sym: str, s):
        entry = self.diagonal[self.step(sym, s)[self.currents(pairs)]]
        # A call symbol is read only by call rules, so s holds only atoms its
        # call guards test; the matching return replays the call under s.
        return entry, (pairs, sym, s)

    def pop_steps(self, pairs: int, gamma) -> list:
        """[(return symbol, S, live state)] of popping gamma in pairs."""
        outer, bracket, s_push = gamma
        rows = self.rows(outer)
        return [(sym, s, nxt)
                for sym, s, f in self.summaries(pairs, bracket, s_push)
                for nxt in (_apply(rows, f),) if nxt]

    def bottom_step(self, pairs: int, sym: str, s) -> int:
        # An unmatched return empties the well-nested suffix, so the anchors
        # reset to the current states, mirroring the pair-set semantics.
        return self.diagonal[self.step(sym, s)[self.currents(pairs)]]

    def accepting(self, pairs: int) -> bool:
        return bool(self.currents(pairs) & self.final)

    def state_name(self, pairs: int) -> str:
        names = self._pair_names
        return "P{" + ",".join([names[b] for b in _bits(pairs)]) + "}"

    def gamma_name(self, gamma) -> str:
        outer, bracket, s_push = gamma
        return (f"K{{{self.state_name(outer)};{bracket};"
                f"{truth_set_name(s_push)}}}")

    def run(self) -> Ecidpda:
        """Reachability over levels keyed by their entry state.

        Every level entered by pushing a stack symbol explores the same states
        as any other level with the same entry state, so same-level
        reachability is computed once per distinct entry (bottom separately)
        and shared by all stack symbols entering it.  Pop successors propagate
        to every level that pushed the popped symbol, so return rules are
        emitted only for (state, stack symbol) pairs that co-occur, and bottom
        returns only for states reachable with an empty stack.  Every
        collection walked keeps insertion order, so the rule order does not
        depend on the hash seed.
        """
        guards = self.guards
        internals = sorted(self.alphabet.internals)
        calls = sorted(self.alphabet.calls)

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
                name = names[state] = self.state_name(state)
            return name

        def gname_of(gamma: Hashable) -> str:
            name = gnames.get(gamma)
            if name is None:
                name = gnames[gamma] = self.gamma_name(gamma)
            return name

        def visit(level: int, state: int) -> None:
            # The dead state is absorbing and never accepts: omitting the
            # transition into it rejects exactly the same strings.
            if not state:
                return
            bucket = levels.setdefault(level, {})
            if state not in bucket:
                bucket[state] = None
                worklist.append((level, state))

        def pop_with(state: int, gamma: Hashable) -> None:
            # Each (gamma, state) pair is expanded exactly once, so the
            # emitted return rules need no deduplication.
            if (gamma, state) in paired:
                return
            paired.add((gamma, state))
            name = name_of(state)
            gname = gnames[gamma]
            results = pop_results[gamma]
            for sym, s, nxt in self.pop_steps(state, gamma):
                rules.append(ReturnRule(name, sym, gname, guards[sym][s],
                                        name_of(nxt)))
                if nxt not in results:
                    results[nxt] = None
                    for outer in pushed_from[gamma]:
                        visit(outer, nxt)

        start = self.start(self.initial)
        visit(_BOTTOM, start)
        while worklist:
            level, state = worklist.pop()
            if state not in internal_exp:
                name = name_of(state)
                internal_exp[state] = [
                    (InternalRule(name, sym, guard, name_of(nxt)), nxt)
                    for sym in internals for s, guard in guards[sym].items()
                    for nxt in (self.internal_step(state, sym, s),) if nxt]
                call_exp[state] = [
                    (CallRule(name, sym, guard, name_of(entry),
                              gname_of(gamma)), entry, gamma)
                    for sym in calls for s, guard in guards[sym].items()
                    for entry, gamma in (self.call_step(state, sym, s),)
                    if entry]
                # Internal and call rules depend only on the state: emit them
                # on first expansion; later levels only revisit successors.
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
                for sym in self.returns:
                    for s, guard in guards[sym].items():
                        nxt = self.bottom_step(state, sym, s)
                        if not nxt:
                            continue
                        rules.append(ReturnRule(name, sym, None, guard,
                                                name_of(nxt)))
                        visit(_BOTTOM, nxt)
            else:
                for gamma in list(gammas_at.get(level, ())):
                    pop_with(state, gamma)

        # Every reached state was named on expansion, every pushed gamma when
        # its call rule was built, and nothing else was named.
        accepting = [name for state, name in names.items()
                     if self.accepting(state)]
        return Ecidpda(self.alphabet, names.values(), [names[start]],
                       accepting, gnames.values(), rules)


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
    # Both public entry points run _Direct rather than call each other, so
    # each call is traced as exactly one determinize_* span.
    return _Direct(a).run()


def determinize_direct(a: Ecidpda) -> Ecidpda:
    """Pair-set determinization storing the truth of every atomic constraint
    in the stack at each call, so the call transition of the source can be
    replayed when the matching return is read.
    """
    return _Direct(a).run()


# --- Construction 2: determinization without stack prediction clocks ----------


def _mirrored_prediction_atoms(true_set: frozenset[Atom]) -> frozenset[Atom]:
    """Stack-prediction truths at a call, read off the stack-history truths
    observed at its matching return.
    """
    return frozenset(
        Atom(Clock(ClockKind.STACK_PREDICTION), a.op, a.bound)
        for a in true_set if a.clock.kind is ClockKind.STACK_HISTORY)


class _NoStackPrediction(_Direct):
    """The construction whose output never reads the stack prediction
    clock.  A state is one int: its pair set, with the mask of its survivor
    set R above it."""

    def universes(self, a: Ecidpda) -> dict[str, tuple[Atom, ...]]:
        """Per symbol, the atoms its truth sets range over; also the
        valuations of each call symbol's stack prediction atoms."""
        # A call symbol is read only by call rules, so its entry holds exactly
        # the atoms its call guards test.
        symbol_atoms = _symbol_guard_atoms(a)
        predicted = {sym: sorted_atoms(
            x for x in symbol_atoms[sym]
            if x.clock.kind is ClockKind.STACK_PREDICTION)
            for sym in a.alphabet.calls}
        # Per-symbol universes: prediction atoms are dropped everywhere (they
        # are undefined off call positions and deferred at call positions);
        # return symbols additionally track the mirrors of every prediction
        # atom some call guard tests, since the deferred check happens at the
        # pop.
        deferred_mirrors = {Atom(Clock(ClockKind.STACK_HISTORY), x.op, x.bound)
                            for sp in predicted.values() for x in sp}
        universe_for = {}
        for sym, atoms_of in symbol_atoms.items():
            kept = {x for x in atoms_of
                    if x.clock.kind is not ClockKind.STACK_PREDICTION}
            if sym in a.alphabet.returns:
                kept |= deferred_mirrors
            universe_for[sym] = sorted_atoms(kept)
        self.sp_valuations = {
            sym: [frozenset(v) for size in range(len(sp) + 1)
                  for v in itertools.combinations(sp, size)]
            for sym, sp in predicted.items()}
        return universe_for

    def start(self, initial: int) -> int:
        return self.diagonal[initial] | initial << self.size

    def call_truths(self, s_push, s_now):
        return s_push | _mirrored_prediction_atoms(s_now)

    def internal_step(self, state: int, sym: str, s) -> int:
        rel = self.step(sym, s)
        return (self.advance(state & self.pair_bits, rel)
                | rel[state >> self.size] << self.size)

    def call_step(self, state: int, sym: str, s):
        survivors = state >> self.size
        # The matching return will replay the call under some valuation of
        # its stack prediction atoms, so only call targets reachable under
        # one of those valuations can ever be consulted as anchors; the
        # entry diagonal ranges over exactly them.
        sources = self.currents(state & self.pair_bits) | survivors
        anchors = 0
        for v in self.sp_valuations[sym]:
            anchors |= self.step(sym, s | v)[sources]
        entry = (self.diagonal[anchors]
                 | self.step(sym, s)[survivors] << self.size)
        # Stack prediction atoms never occur in s; the matching return adds
        # them back from the mirrored stack history truths.
        return entry, (state, sym, s)

    def pop_steps(self, state: int, gamma) -> list:
        outer, bracket, s_push = gamma
        width = self.size
        rows, survivors = self.rows(outer & self.pair_bits), outer >> width
        return [(sym, s, nxt) for sym, s, f
                in self.summaries(state & self.pair_bits, bracket, s_push)
                for nxt in (_apply(rows, f) | f[survivors] << width,)
                if nxt]

    def bottom_step(self, state: int, sym: str, s) -> int:
        after = self.step(sym, s)[state >> self.size]
        # On an empty stack no bracket is pending, so the survivor set is the
        # exact current state set and the new anchors are exactly it.
        return self.diagonal[after] | after << self.size

    def accepting(self, state: int) -> bool:
        return bool(state >> self.size & self.final)

    def state_name(self, state: int) -> str:
        names = self._state_names
        survivors = ",".join([names[q] for q in _bits(state >> self.size)])
        return (f"{super().state_name(state & self.pair_bits)}"
                f"|R{{{survivors}}}")


def determinize_no_stack_prediction(a: Ecidpda) -> Ecidpda:
    """Determinization whose output never consults the stack prediction
    clock.

    Verification of stack-prediction guards at a call is deferred to the
    matching return, where the elapsed call-return time shows up on the
    stack history clock; a survivor component R handles the case of brackets
    that never close.
    """
    return _NoStackPrediction(a).run()


def size_bounds(source: Ecidpda, mode: str) -> tuple[int, int]:
    """The paper's bounds on the (states, stack symbols) of construction
    mode's output ("untimed", "direct" or "nostackpred"), counting stack
    symbols per call symbol.  k is len(source.atom_set()), the number of
    distinct atomic constraints; the abstract counts "different clock
    constraints"."""
    n = len(source.states)
    k = len(source.atom_set())
    calls = max(1, len(source.alphabet.calls))
    if mode in ("untimed", "direct"):
        # An untimed source has k = 0: the direct bound is the untimed one.
        return 2 ** (n * n), calls * 2 ** (n * n + k)
    if mode != "nostackpred":
        raise ValueError(f"unknown construction: {mode!r}")
    # Mirrored atoms can only replace stack prediction atoms one for one, so
    # k also bounds the tracked universe of the improved construction.
    return (2 ** (n * n) * 2 ** n,
            calls * 2 ** (n * n) * 2 ** n * 2 ** k)


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
