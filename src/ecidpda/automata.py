"""The ECIDPDA model: guarded rules, configuration-set simulation,
acceptance, the determinism check, and JSON (de)serialization.

A right-bracket rule with pop=None fires on an empty stack (the bottom
marker); serialized as `"pop": "bottom"`.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .constraints import (Atom, Constraint, TRUE, atom_nodes, atoms,
                          eval_with, evaluate, format_guard,
                          mutually_exclusive, parse_guard, PROVABLY_EXCLUSIVE)
from .timed import PartitionedAlphabet, TimedString


class AutomatonError(ValueError):
    """Raised on malformed automata or inputs outside their alphabet."""


def _json_str(data: dict, key: str, default: Optional[str] = None) -> str:
    value = data[key] if default is None else data.get(key, default)
    if not isinstance(value, str):
        raise AutomatonError(f"{key!r} must be a string, got {value!r}")
    return value


def _json_strs(data: dict, key: str,
               default: Optional[list] = None) -> list[str]:
    value = data[key] if default is None else data.get(key, default)
    if not (isinstance(value, list) and all(isinstance(v, str)
                                            for v in value)):
        raise AutomatonError(f"{key!r} must be a list of strings")
    return value


@dataclass(frozen=True, slots=True)
class InternalRule:
    src: str
    symbol: str
    guard: Constraint
    dst: str


@dataclass(frozen=True, slots=True)
class CallRule:
    src: str
    symbol: str
    guard: Constraint
    dst: str
    push: str


@dataclass(frozen=True, slots=True)
class ReturnRule:
    src: str
    symbol: str
    pop: Optional[str]  # None = empty stack (bottom)
    guard: Constraint
    dst: str


Rule = Union[InternalRule, CallRule, ReturnRule]


class collector_paused:
    """Context manager that pauses CPython's cyclic garbage collector for
    its body and restores the caller's setting however the body ends.

    The determinizations and RuleIndex build under it: they allocate many
    long-lived objects and create no reference cycles, so a collection
    triggered while they build frees nothing; it only re-scans live
    objects, the whole heap when it is a full one.  Only the outermost of
    nested pauses turns the collector back on.
    """

    __slots__ = ("_paused",)

    def __enter__(self) -> None:
        self._paused = gc.isenabled()
        if self._paused:
            gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._paused:
            gc.enable()


@dataclass(frozen=True)
class Ecidpda:
    alphabet: PartitionedAlphabet
    states: frozenset[str]
    initial: frozenset[str]
    accepting: frozenset[str]
    stack: frozenset[str]
    rules: tuple[Rule, ...]

    def __init__(self, alphabet, states, initial, accepting, stack, rules):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(self, "initial", frozenset(initial))
        object.__setattr__(self, "accepting", frozenset(accepting))
        object.__setattr__(self, "stack", frozenset(stack))
        object.__setattr__(self, "rules", tuple(rules))
        self._validate()

    def _validate(self) -> None:
        if not self.initial:
            raise AutomatonError("no initial state")
        for name, subset in (("initial", self.initial),
                             ("accepting", self.accepting)):
            if not subset <= self.states:
                raise AutomatonError(f"{name} states outside the state set")
        for rule in self.rules:
            if rule.src not in self.states or rule.dst not in self.states:
                raise AutomatonError(f"rule references unknown state: {rule}")
            if isinstance(rule, InternalRule):
                if rule.symbol not in self.alphabet.internals:
                    raise AutomatonError(f"not an internal symbol: {rule.symbol}")
            elif isinstance(rule, CallRule):
                if rule.symbol not in self.alphabet.calls:
                    raise AutomatonError(f"not a call symbol: {rule.symbol}")
                if rule.push not in self.stack:
                    raise AutomatonError(f"unknown stack symbol: {rule.push}")
            elif isinstance(rule, ReturnRule):
                if rule.symbol not in self.alphabet.returns:
                    raise AutomatonError(f"not a return symbol: {rule.symbol}")
                if rule.pop is not None and rule.pop not in self.stack:
                    raise AutomatonError(f"unknown stack symbol: {rule.pop}")
            else:
                raise AutomatonError(f"unknown rule type: {rule!r}")

    def atom_set(self) -> frozenset[Atom]:
        """All atomic constraints used across the transition guards."""
        result: set[Atom] = set()
        for rule in self.rules:
            result |= atoms(rule.guard)
        return frozenset(result)

    def rules_by_key(self) -> dict:
        """Rules grouped by (src, symbol) and, for returns, the pop symbol."""
        groups: dict = {}
        for rule in self.rules:
            if isinstance(rule, ReturnRule):
                key = (rule.src, rule.symbol, rule.pop)
            else:
                key = (rule.src, rule.symbol)
            groups.setdefault(key, []).append(rule)
        return groups

    # --- JSON -------------------------------------------------------------

    def to_json(self) -> dict:
        transitions = []
        for rule in self.rules:
            entry = {"from": rule.src, "symbol": rule.symbol,
                     "guard": format_guard(rule.guard), "to": rule.dst}
            if isinstance(rule, CallRule):
                entry["push"] = rule.push
            elif isinstance(rule, ReturnRule):
                entry["pop"] = rule.pop if rule.pop is not None else "bottom"
            transitions.append(entry)
        return {
            "alphabet": self.alphabet.to_json(),
            "states": sorted(self.states),
            "initial": sorted(self.initial),
            "accepting": sorted(self.accepting),
            "stack": sorted(self.stack),
            "transitions": transitions,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Ecidpda":
        if not isinstance(data, dict):
            raise AutomatonError("an automaton must be a JSON object")
        alphabet = PartitionedAlphabet.from_json(data["alphabet"])
        transitions = data.get("transitions", [])
        if not (isinstance(transitions, list)
                and all(isinstance(entry, dict) for entry in transitions)):
            raise AutomatonError("transitions must be a list of objects")
        rules: list[Rule] = []
        for entry in transitions:
            guard = parse_guard(entry.get("guard", "true"))
            src, sym, dst = (_json_str(entry, key)
                             for key in ("from", "symbol", "to"))
            if sym in alphabet.calls:
                rules.append(CallRule(src, sym, guard, dst,
                                      _json_str(entry, "push")))
            elif sym in alphabet.returns:
                pop = _json_str(entry, "pop", "bottom")
                rules.append(ReturnRule(src, sym,
                                        None if pop == "bottom" else pop,
                                        guard, dst))
            else:
                rules.append(InternalRule(src, sym, guard, dst))
        return cls(alphabet, *(_json_strs(data, key)
                               for key in ("states", "initial", "accepting")),
                   _json_strs(data, "stack", []), rules)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Ecidpda":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (UnicodeDecodeError, RecursionError) as exc:
            raise AutomatonError(f"{path}: unreadable JSON: {exc}") from exc
        return cls.from_json(data)


Configuration = tuple[str, tuple[str, ...]]  # (state, stack with top first)


@dataclass(frozen=True)
class RunResult:
    accepted: bool
    final_configs: frozenset[Configuration]
    trace: tuple[frozenset[Configuration], ...]  # length = |w| + 1


# A multi-rule group's entry in RuleIndex.tables after its first visit,
# before its decision table is built.
_SEEN = object()


class RuleIndex:
    """Rules of an automaton indexed for configuration-set stepping.

    The rules are grouped by (state, symbol) and, for returns, the pop
    symbol.  Within one step each guard object and each atom object is
    evaluated at most once, however many configurations and rules share
    it; the truths are dropped when the step ends.

    A group of two or more rules visited a second time gets a decision
    table: the bit mask of its atoms' truths at a position (atoms collected
    by identity, in first-seen order) maps to the rules that fire, filled
    on a miss by walking the guards.  A later position with the same mask
    costs one atom-memo read per atom and one lookup.  A group's table
    holds at most one entry per distinct mask seen, so at most 2^(its
    atoms); the tables live as long as the index, so reusing one index
    across strings reuses them.
    """

    def __init__(self, a: Ecidpda):
        self.automaton = a
        self.internal: dict[tuple[str, str], list[InternalRule]] = {}
        self.call: dict[tuple[str, str], list[CallRule]] = {}
        self.ret: dict[tuple[str, str, Optional[str]], list[ReturnRule]] = {}
        # id(group) -> _SEEN, or (its atoms, {mask: firing rules})
        self.tables: dict[int, object] = {}
        with collector_paused():
            for rule in a.rules:
                if isinstance(rule, InternalRule):
                    self.internal.setdefault((rule.src, rule.symbol),
                                             []).append(rule)
                elif isinstance(rule, CallRule):
                    self.call.setdefault((rule.src, rule.symbol),
                                         []).append(rule)
                else:
                    self.ret.setdefault((rule.src, rule.symbol, rule.pop),
                                        []).append(rule)

    def step(self, configs: Iterable[Configuration], w: TimedString,
             i: int) -> set[Configuration]:
        """All successor configurations when reading position i of w."""
        a = self.automaton
        sym = w.symbol(i)
        # Truths of the guards and atoms read at position i, by identity:
        # every node is held by a rule for the whole step.
        memo: dict[int, bool] = {}
        fired = self._fired
        nxt: set[Configuration] = set()
        if sym in a.alphabet.internals:
            for state, stack in configs:
                group = self.internal.get((state, sym))
                if group:
                    for rule in fired(group, memo, w, i):
                        nxt.add((rule.dst, stack))
        elif sym in a.alphabet.calls:
            for state, stack in configs:
                group = self.call.get((state, sym))
                if group:
                    for rule in fired(group, memo, w, i):
                        nxt.add((rule.dst, (rule.push,) + stack))
        else:
            for state, stack in configs:
                group = self.ret.get((state, sym, stack[0] if stack
                                      else None))
                if group:
                    for rule in fired(group, memo, w, i):
                        nxt.add((rule.dst, stack[1:]))
        return nxt

    def _fired(self, group: list, memo: dict, w: TimedString,
               i: int) -> list:
        """The rules of a group whose guards hold at position i of w."""
        if len(group) == 1:
            return group if self._holds(group[0].guard, memo, w, i) else []
        entry = self.tables.get(id(group))
        if entry is None:
            self.tables[id(group)] = _SEEN
            return [rule for rule in group
                    if self._holds(rule.guard, memo, w, i)]
        if entry is _SEEN:
            entry = self.tables[id(group)] = (_group_atoms(group), {})
        group_atoms, table = entry
        mask = 0
        bit = 1
        for atom in group_atoms:
            if _memoized_truth(atom, memo, w, i):
                mask |= bit
            bit <<= 1
        rules = table.get(mask)
        if rules is None:
            rules = table[mask] = [rule for rule in group
                                   if self._holds(rule.guard, memo, w, i)]
        return rules

    @staticmethod
    def _holds(guard: Constraint, memo: dict, w: TimedString,
               i: int) -> bool:
        truth = memo.get(id(guard))
        if truth is None:
            truth = memo[id(guard)] = eval_with(
                guard, lambda atom: _memoized_truth(atom, memo, w, i))
        return truth


def _memoized_truth(atom: Atom, memo: dict, w: TimedString, i: int) -> bool:
    """The truth of an atom object at position i, read once per step."""
    truth = memo.get(id(atom))
    if truth is None:
        truth = memo[id(atom)] = evaluate(atom, w, i)
    return truth


def _group_atoms(group: list) -> tuple[Atom, ...]:
    """The atom objects of a group's guards, each once, in first-seen
    order; equal atoms that are distinct objects are kept apart."""
    found: dict[int, Atom] = {}
    for rule in group:
        for atom in atom_nodes(rule.guard):
            found.setdefault(id(atom), atom)
    return tuple(found.values())


def simulate(a: Ecidpda, w: TimedString,
             index: Optional[RuleIndex] = None) -> RunResult:
    """Exact nondeterministic simulation via sets of configurations.

    Configurations with no applicable rule are dropped; acceptance requires
    some final configuration's state to be accepting, any stack contents.
    Once no configuration is left the run stops stepping, and the rest of
    its trace is empty sets.  Pass a prebuilt RuleIndex to amortize
    indexing, and its decision tables, across many strings.

    The string's alphabet places its brackets, and with them the stack
    clocks, so each symbol of w must be in the automaton's alphabet and in
    the same class (call, return or internal) in both.
    """
    if w.alphabet != a.alphabet:
        ours, theirs = a.alphabet, w.alphabet
        for sym in dict.fromkeys(w.symbols):
            if sym not in ours:
                raise AutomatonError(
                    f"symbol {sym!r} outside the automaton alphabet")
            if (sym in ours.calls) != (sym in theirs.calls) or (
                    sym in ours.returns) != (sym in theirs.returns):
                raise AutomatonError(
                    f"symbol {sym!r} is classed differently by the string "
                    f"and the automaton alphabets")
    if index is None:
        index = RuleIndex(a)
    elif index.automaton is not a:
        raise AutomatonError("rule index belongs to a different automaton")
    configs: set[Configuration] = {(q, ()) for q in a.initial}
    trace = [frozenset(configs)]
    for i in range(1, len(w) + 1):
        if not configs:
            trace += [frozenset()] * (len(w) + 1 - i)
            break
        configs = index.step(configs, w, i)
        trace.append(frozenset(configs))
    accepted = any(state in a.accepting for state, _ in configs)
    return RunResult(accepted, frozenset(configs), tuple(trace))


DETERMINISTIC = "deterministic"


@dataclass(frozen=True)
class NondeterminismWitness:
    reason: str
    rules: tuple[Rule, ...] = ()

    def __bool__(self) -> bool:  # truthy = nondeterministic
        return True


def is_deterministic(a: Ecidpda) -> Union[str, NondeterminismWitness]:
    """Syntactic determinism check: unique initial state, and within each
    (state, symbol[, pop]) group all guard pairs provably exclusive.

    Conservative: POSSIBLY_OVERLAPPING guard pairs count as nondeterminism.
    """
    if len(a.initial) != 1:
        return NondeterminismWitness(f"{len(a.initial)} initial states")
    cache: dict[tuple[int, int], str] = {}
    for key, rules in a.rules_by_key().items():
        for x in range(len(rules)):
            for y in range(x + 1, len(rules)):
                g1, g2 = rules[x].guard, rules[y].guard
                ck = (id(g1), id(g2))
                if ck not in cache:
                    cache[ck] = mutually_exclusive(g1, g2)
                if cache[ck] != PROVABLY_EXCLUSIVE:
                    return NondeterminismWitness(
                        f"possibly overlapping guards at {key}",
                        (rules[x], rules[y]))
    return DETERMINISTIC


def embed_untimed(states: Iterable[str], initial: Iterable[str],
                  accepting: Iterable[str], stack: Iterable[str],
                  alphabet: PartitionedAlphabet,
                  internal: Iterable[tuple[str, str, str]] = (),
                  calls: Iterable[tuple[str, str, str, str]] = (),
                  returns: Iterable[tuple[str, str, Optional[str], str]] = ()
                  ) -> Ecidpda:
    """Wrap unguarded transitions with guard TRUE, producing an untimed
    input-driven automaton as an Ecidpda.

    internal: (src, symbol, dst); calls: (src, symbol, dst, push);
    returns: (src, symbol, pop-or-None, dst).
    """
    rules: list[Rule] = []
    rules += [InternalRule(s, c, TRUE, d) for s, c, d in internal]
    rules += [CallRule(s, c, TRUE, d, g) for s, c, d, g in calls]
    rules += [ReturnRule(s, c, pop, TRUE, d) for s, c, pop, d in returns]
    return Ecidpda(alphabet, states, initial, accepting, stack, rules)
