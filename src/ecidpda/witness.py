"""The lower-bound witness family: relation/set encodings, timed well-formed
strings, the validity predicate, the O(n)-state nondeterministic checker,
and distinguishing-suffix construction.

A well-formed string has m bracketed levels.  Level i carries a relation
R_i (encoded as `#a^i b^j` runs before its left bracket closes over it) and
two symbol sets X_i, Y_i announced by timing: the members of X_i occur less
than one time unit before the i-th left bracket, the members of Y_i less
than one unit before the matching right bracket, while a mandatory prefix
listing every event symbol sits more than one unit before the bracket.
The string is valid when (s_i, s_{i+1}) is in R_i and X_i meets Y_i at
every level.

Three constants fix the timing: symbols outside the member lists are STEP
apart, a prefix ends STEP + FAR_GAP (> 1) before its bracket, and the member
list lies within the NEAR_GAP (< 1) before it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .automata import CallRule, Ecidpda, InternalRule, ReturnRule, Rule
from .constraints import TRUE, desugar
from .timed import PartitionedAlphabet, TimedString, hist

FAR_GAP = Fraction(3, 2)
NEAR_GAP = Fraction(1, 2)
STEP = Fraction(1, 4)

Events = list[tuple[str, Fraction]]


class WitnessError(ValueError):
    """Raised on out-of-range or malformed witness parameters."""


def event_symbol(i: int) -> str:
    return f"e{i}"


def witness_alphabet(k: int) -> PartitionedAlphabet:
    if k < 1:
        raise WitnessError("k must be at least 1")
    internals = {"a", "b", "c", "#"} | {event_symbol(i) for i in range(1, k + 1)}
    return PartitionedAlphabet({"<"}, {">"}, internals)


@dataclass(frozen=True)
class WitnessSpec:
    n: int
    k: int
    m: int
    s: tuple[int, ...]                      # length m + 1
    relations: tuple[frozenset[tuple[int, int]], ...]   # length m
    x_sets: tuple[frozenset[int], ...]      # event indices, length m
    y_sets: tuple[frozenset[int], ...]      # length m

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.m < 1:
            raise WitnessError("n, k and m must be positive")
        if len(self.s) != self.m + 1:
            raise WitnessError(f"need {self.m + 1} numbers, got {len(self.s)}")
        for group in ("relations", "x_sets", "y_sets"):
            if len(getattr(self, group)) != self.m:
                raise WitnessError(f"{group} must have length {self.m}")
        if any(not 0 <= v < self.n for v in self.s):
            raise WitnessError("numbers must lie in 0..n-1")
        for rel in self.relations:
            for i, j in rel:
                if not (0 <= i < self.n and 0 <= j < self.n):
                    raise WitnessError("relation element out of range")
        for sets in (self.x_sets, self.y_sets):
            for members in sets:
                if any(not 1 <= e <= self.k for e in members):
                    raise WitnessError("event index out of range")

    @classmethod
    def make(cls, n: int, k: int, m: int, s: Sequence[int],
             relations: Sequence[Iterable[tuple[int, int]]],
             x_sets: Sequence[Iterable[int]],
             y_sets: Sequence[Iterable[int]]) -> "WitnessSpec":
        return cls(n, k, m, tuple(s),
                   tuple(frozenset(map(tuple, r)) for r in relations),
                   tuple(frozenset(x) for x in x_sets),
                   tuple(frozenset(y) for y in y_sets))

    @classmethod
    def from_json(cls, data: dict) -> "WitnessSpec":
        def lists_of(value, ok) -> bool:
            return isinstance(value, list) and all(
                isinstance(v, list) and all(map(ok, v)) for v in value)

        def is_int(v) -> bool:
            return isinstance(v, int)

        def is_pair(v) -> bool:
            return isinstance(v, list) and len(v) == 2 and all(map(is_int, v))

        def is_event(v) -> bool:
            return isinstance(v, str) and v[:1] == "e" and v[1:].isdecimal()

        if not (isinstance(data, dict)
                and all(is_int(data[key]) for key in "nkm")
                and isinstance(data["s"], list) and all(map(is_int, data["s"]))
                and lists_of(data["R"], is_pair)
                and lists_of(data["X"], is_event)
                and lists_of(data["Y"], is_event)):
            raise WitnessError("malformed witness spec: want integers in n, "
                               "k, m and s, [i, j] pairs in R and event "
                               "symbols in X and Y")
        return cls.make(data["n"], data["k"], data["m"], data["s"], data["R"],
                        *([[int(e[1:]) for e in sets] for sets in data[key]]
                          for key in "XY"))

    def to_json(self) -> dict:
        return {
            "n": self.n, "k": self.k, "m": self.m, "s": list(self.s),
            "R": [sorted(map(list, r)) for r in self.relations],
            "X": [[event_symbol(e) for e in sorted(x)] for x in self.x_sets],
            "Y": [[event_symbol(e) for e in sorted(y)] for y in self.y_sets],
        }


def encode_relation(relation: Iterable[tuple[int, int]], n: int) -> list[str]:
    """`#a^i b^j` for each pair, in lexicographic pair order."""
    out: list[str] = []
    for i, j in sorted(set(map(tuple, relation))):
        if not (0 <= i < n and 0 <= j < n):
            raise WitnessError(f"pair ({i}, {j}) out of range for n={n}")
        out.append("#")
        out.extend(["a"] * i)
        out.extend(["b"] * j)
    return out


def encode_set(members: Iterable[int], k: int) -> list[str]:
    """All k event symbols in index order, then the members in index order."""
    members = sorted(set(members))
    if members and not (1 <= members[0] and members[-1] <= k):
        raise WitnessError("event index out of range")
    return ([event_symbol(i) for i in range(1, k + 1)]
            + [event_symbol(i) for i in members])


def _filler(events: Events, symbols: Iterable[str], t: Fraction) -> Fraction:
    """Append the symbols STEP apart after t; the last timestamp."""
    for sym in symbols:
        t += STEP
        events.append((sym, t))
    return t


def _v_block(events: Events, members: Iterable[int], k: int, bracket: str,
             t: Fraction) -> Fraction:
    """Append all k event symbols, then the members, then the bracket, so
    that at the bracket hist(e_i) < 1 exactly for the members; the bracket's
    timestamp.
    """
    symbols = encode_set(members, k)
    at = _filler(events, symbols[:k], t) + STEP + FAR_GAP
    near = symbols[k:]
    gap = NEAR_GAP / (len(near) + 1)
    events.extend((sym, at - NEAR_GAP + j * gap) for j, sym in enumerate(near))
    events.append((bracket, at))
    return at


def _prefix_events(spec: WitnessSpec) -> Events:
    """w1 = v_{X_1} < u_{R_1} ... v_{X_m} < u_{R_m}, after time 0."""
    events: Events = []
    t = Fraction(0)
    for members, relation in zip(spec.x_sets, spec.relations):
        t = _v_block(events, members, spec.k, "<", t)
        t = _filler(events, encode_relation(relation, spec.n), t)
    return events


def _suffix_events(s: Sequence[int], y_sets: Sequence[Iterable[int]], k: int,
                   t: Fraction) -> Events:
    """w2 = c^{s_{m+1}} v_{Y_m} > ... c^{s_2} v_{Y_1} > c^{s_1}, after t."""
    events: Events = []
    for i in range(len(y_sets), 0, -1):
        t = _filler(events, "c" * s[i], t)
        t = _v_block(events, y_sets[i - 1], k, ">", t)
    _filler(events, "c" * s[0], t)
    return events


def build_well_formed(spec: WitnessSpec) -> TimedString:
    """The full timed well-formed string for a parameter vector."""
    prefix = _prefix_events(spec)
    suffix = _suffix_events(spec.s, spec.y_sets, spec.k, prefix[-1][1])
    return TimedString(witness_alphabet(spec.k), prefix + suffix)


def build_prefix(spec: WitnessSpec) -> TimedString:
    """Only the first half w1 = v_{X_1} < u_{R_1} ... v_{X_m} < u_{R_m}."""
    return TimedString(witness_alphabet(spec.k), _prefix_events(spec))


def enumerate_specs(n: int, k: int, m: int) -> Iterator[WitnessSpec]:
    """Every parameter vector for n, k and m: numbers, then relations (by
    size), then X sets and Y sets (by size), each in lexicographic order.

    Raises WitnessError at the call, not on first iteration, unless n, k
    and m are all at least 1.
    """
    if min(n, k, m) < 1:
        raise WitnessError("n, k and m must be positive")
    numbers = list(range(n))
    pairs = list(itertools.product(numbers, repeat=2))
    relations = [frozenset(sub) for size in range(len(pairs) + 1)
                 for sub in itertools.combinations(pairs, size)]
    events = list(range(1, k + 1))
    subsets = [frozenset(sub) for size in range(k + 1)
               for sub in itertools.combinations(events, size)]
    return (WitnessSpec(n, k, m, s, rel_vec, x_vec, y_vec)
            for s in itertools.product(numbers, repeat=m + 1)
            for rel_vec in itertools.product(relations, repeat=m)
            for x_vec in itertools.product(subsets, repeat=m)
            for y_vec in itertools.product(subsets, repeat=m))


def is_valid(spec: WitnessSpec) -> bool:
    """(s_i, s_{i+1}) in R_i and X_i meets Y_i, at every level."""
    for i in range(spec.m):
        if (spec.s[i], spec.s[i + 1]) not in spec.relations[i]:
            return False
        if not spec.x_sets[i] & spec.y_sets[i]:
            return False
    return True


# --- the nondeterministic checker ---------------------------------------------


def stack_symbol(number: int, event: int) -> str:
    return f"s{number}_e{event}"


def build_witness_nfa(n: int, k: int) -> Ecidpda:
    """The O(n)-state nondeterministic validity checker.

    At each left bracket it guesses the next chain number s and a witness
    event e, checks hist(e) < 1 (so e is in the announced X set), and pushes
    (s, e); inside the level it verifies one `#a^s b^t` pair, carrying t
    onward; in the second half it counts the c-runs against the carried and
    popped numbers, re-checking hist(e) < 1 at each right bracket.
    """
    if n < 1 or k < 1:
        raise WitnessError("n and k must be positive")
    alphabet = witness_alphabet(k)
    events = [event_symbol(i) for i in range(1, k + 1)]

    start = "start"
    seek = [f"seek{t}" for t in range(n)]
    expa = [f"expa{r}" for r in range(n)]
    countb = [f"countb{t}" for t in range(1, n)]
    done = [f"done{t}" for t in range(n)]
    cdown = [f"cdown{r}" for r in range(n)]
    states = [start] + seek + expa + countb + done + cdown
    stack = [stack_symbol(s, e) for s in range(n) for e in range(1, k + 1)]

    near_guards = {e: desugar("<", hist(event_symbol(e)), 1)
                   for e in range(1, k + 1)}

    rules: list[Rule] = []

    # Skip the opening v-block.
    for ev in events:
        rules.append(InternalRule(start, ev, TRUE, start))
    # First left bracket: guess the chain's first number s and an X-member e.
    for s in range(n):
        for e in range(1, k + 1):
            rules.append(CallRule(start, "<", near_guards[e],
                                  f"seek{s}", stack_symbol(s, e)))
    # Later left brackets: push the carried number, guess only the event.
    for t in range(n):
        for e in range(1, k + 1):
            rules.append(CallRule(f"done{t}", "<", near_guards[e],
                                  f"seek{t}", stack_symbol(t, e)))
    for t in range(n):
        # Skip within the relation encoding until the verified pair is chosen.
        for sym in ("#", "a", "b"):
            rules.append(InternalRule(f"seek{t}", sym, TRUE, f"seek{t}"))
        rules.append(InternalRule(f"seek{t}", "#", TRUE, f"expa{t}"))
    for r in range(1, n):
        rules.append(InternalRule(f"expa{r}", "a", TRUE, f"expa{r - 1}"))
    # After the expected a-run: read the b-count, or conclude a zero b-count.
    for nxt_sym in ("#", *events):
        rules.append(InternalRule("expa0", nxt_sym, TRUE, "done0"))
    if n > 1:
        rules.append(InternalRule("expa0", "b", TRUE, "countb1"))
    for t in range(1, n):
        if t + 1 < n:
            rules.append(InternalRule(f"countb{t}", "b", TRUE,
                                      f"countb{t + 1}"))
        rules.append(InternalRule(f"countb{t}", "#", TRUE, f"done{t}"))
        for ev in events:
            rules.append(InternalRule(f"countb{t}", ev, TRUE, f"done{t}"))
        rules.append(InternalRule(f"countb{t}", "c", TRUE, f"cdown{t - 1}"))
    for t in range(n):
        # Carrying t with its c-run still unverified: skip the remaining
        # relation encoding and the next v-block.
        for sym in ("#", "a", "b", *events):
            rules.append(InternalRule(f"done{t}", sym, TRUE, f"done{t}"))
        if t >= 1:
            rules.append(InternalRule(f"done{t}", "c", TRUE,
                                      f"cdown{t - 1}"))
    # Pop at a right bracket once the carried c-run is fully consumed.
    for src in ("done0", "cdown0"):
        for s in range(n):
            for e in range(1, k + 1):
                rules.append(ReturnRule(src, ">", stack_symbol(s, e),
                                        near_guards[e], f"done{s}"))
    for r in range(1, n):
        rules.append(InternalRule(f"cdown{r}", "c", TRUE, f"cdown{r - 1}"))
    for ev in events:
        rules.append(InternalRule("cdown0", ev, TRUE, "cdown0"))

    accepting = ["done0", "cdown0"]
    return Ecidpda(alphabet, states, [start], accepting, stack, rules)


# --- distinguishing suffixes (behavioral separation) ---------------------------


@dataclass(frozen=True)
class SuffixPlan:
    """A second half w2 separating two first halves: appending it makes the
    string of `valid_for` (1 or 2) valid and the other invalid.
    """

    s: tuple[int, ...]
    y_sets: tuple[frozenset[int], ...]
    valid_for: int


def is_left_total(relation: frozenset[tuple[int, int]], n: int) -> bool:
    return all(any((x, y) in relation for y in range(n)) for x in range(n))


def is_right_total(relation: frozenset[tuple[int, int]], n: int) -> bool:
    return all(any((x, y) in relation for x in range(n)) for y in range(n))


def _thread_backward(relations, i: int, value: int) -> list[int]:
    """Numbers s_1..s_i with (s_j, s_{j+1}) in R_j, ending at s_i = value;
    relations R_1..R_{i-1} must be right-total.
    """
    chain = [value]
    for j in range(i - 1, 0, -1):
        prev = next(x for x, y in sorted(relations[j - 1]) if y == chain[0])
        chain.insert(0, prev)
    return chain


def _thread_forward(relations, i: int, value: int, m: int) -> list[int]:
    """Numbers s_{i+1}..s_{m+1} starting at s_{i+1} = value; relations
    R_{i+1}..R_m must be left-total.
    """
    chain = [value]
    for j in range(i + 1, m + 1):
        nxt = next(y for x, y in sorted(relations[j - 1]) if x == chain[-1])
        chain.append(nxt)
    return chain


def distinguishing_suffix_plan(spec1: WitnessSpec, spec2: WitnessSpec
                               ) -> Optional[SuffixPlan]:
    """The continuation from the stack-symbol lower-bound argument.

    Relation case: parameters differ in some relation; all relations must be
    left- and right-total, and the suffix reuses the X sets as Y sets.
    Set case: equal relations, some X set differs; the differing level's Y
    set becomes the singleton {e}.
    """
    if (spec1.n, spec1.k, spec1.m) != (spec2.n, spec2.k, spec2.m):
        raise WitnessError("specs must share n, k and m")
    n, m = spec1.n, spec1.m
    if (spec1.relations, spec1.x_sets) == (spec2.relations, spec2.x_sets):
        return None

    # A parameter vector with an empty X set can never be completed to a
    # valid string; if exactly one side is completable, any suffix that
    # validates it separates the pair.
    completable = [all(sp.x_sets) for sp in (spec1, spec2)]
    if not any(completable):
        raise WitnessError(
            "neither side can be completed to a valid string")
    if completable[0] != completable[1]:
        owner = 1 if completable[0] else 2
        sp = spec1 if owner == 1 else spec2
        for rel in sp.relations:
            if not is_left_total(rel, n):
                raise WitnessError("threading needs left-total relations")
        chain = _thread_forward(sp.relations, 0, 0, m)
        return SuffixPlan(tuple(chain), sp.x_sets, owner)

    if spec1.relations != spec2.relations:
        i = next(j for j in range(m)
                 if spec1.relations[j] != spec2.relations[j])
        last_error = None
        for owner, rels, x_sets in ((1, spec1.relations, spec1.x_sets),
                                    (2, spec2.relations, spec2.x_sets)):
            other = spec2.relations if owner == 1 else spec1.relations
            diff = rels[i] - other[i]
            if not diff:
                continue
            # Threading a chain through the differing pair needs the
            # relations before it right-total and after it left-total.
            if not (all(is_right_total(rels[j], n) for j in range(i))
                    and all(is_left_total(rels[j], n)
                            for j in range(i + 1, m))):
                last_error = WitnessError(
                    "relation case needs left- and right-total relations")
                continue
            s_pair = min(diff)
            chain = (_thread_backward(rels, i + 1, s_pair[0])
                     + _thread_forward(rels, i + 1, s_pair[1], m))
            return SuffixPlan(tuple(chain), x_sets, owner)
        raise last_error or WitnessError(
            "relation case needs left- and right-total relations")

    # Set case: equal relations, differing X vectors.
    i = next(j for j in range(m) if spec1.x_sets[j] != spec2.x_sets[j])
    diff = spec1.x_sets[i] - spec2.x_sets[i]
    owner, x_sets = 1, spec1.x_sets
    if not diff:
        diff = spec2.x_sets[i] - spec1.x_sets[i]
        owner, x_sets = 2, spec2.x_sets
    for rel in spec1.relations:
        if not is_left_total(rel, n):
            raise WitnessError("set case needs left-total relations")
    chain = _thread_forward(spec1.relations, 0, 0, m)
    # _thread_forward with i=0 starts the chain at s_1 = 0.
    y_sets = list(x_sets)
    y_sets[i] = frozenset({min(diff)})
    return SuffixPlan(tuple(chain), tuple(y_sets), owner)


def build_suffix(plan: SuffixPlan, k: int, start: Fraction) -> TimedString:
    """The timed w2 for a suffix plan, its first event after `start`."""
    return TimedString(witness_alphabet(k),
                       _suffix_events(plan.s, plan.y_sets, k, start))


def concat_timed(left: TimedString, right: TimedString) -> TimedString:
    if left.alphabet != right.alphabet:
        raise WitnessError("cannot concatenate over different alphabets")
    return TimedString(left.alphabet, left.events + right.events)


def distinguishing_suffix(spec1: WitnessSpec, spec2: WitnessSpec
                          ) -> Optional[TimedString]:
    """The timed separating suffix, scheduled after both prefixes end."""
    plan = distinguishing_suffix_plan(spec1, spec2)
    if plan is None:
        return None
    end = max(_prefix_events(sp)[-1][1] for sp in (spec1, spec2))
    return build_suffix(plan, spec1.k, end)


def combined_spec(spec: WitnessSpec, plan: SuffixPlan) -> WitnessSpec:
    """The parameter vector of w1(spec) concatenated with w2(plan)."""
    return WitnessSpec(spec.n, spec.k, spec.m, plan.s, spec.relations,
                       spec.x_sets, plan.y_sets)


def load_witness_spec(path: str) -> WitnessSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:
        raise WitnessError(f"{path}: unreadable JSON: {exc}") from exc
    return WitnessSpec.from_json(data)
