"""The benchmark's workloads.

Each workload has a `setup(seed, tally)` that generates every input from the
seed (and builds any automaton that is not the measured operation) and a
`round(inputs, r, tally)` that performs one unit of measured, checked work.
The runner calls rounds back to back from one caller (a closed loop) until
the measured time is up and at least `first_pass(inputs)` rounds are done.

The program is called through its module attributes (`A.simulate`,
`D.determinize_direct`, ...) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from ecidpda import automata as A
from ecidpda import determinize as D
from ecidpda import witness as W
from ecidpda.cli import _theoretical_bounds
from ecidpda.constraints import parse_guard
from ecidpda.generate import random_automaton, random_timed_string
from ecidpda.timed import PartitionedAlphabet, TimedString


class Tally:
    """Everything one run measures: latencies, sizes and verdict checks."""

    def __init__(self) -> None:
        self.simulate_s: list[float] = []
        self.determinize_s: list[float] = []
        self.det_sizes: list[tuple[int, int, int]] = []  # states, stack, rules
        self.events = 0
        self.verdicts = 0
        self.accepted = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.positions = 0
        self.live_positions = 0
        self.configs = 0
        self.lengths: list[int] = []
        self.max_depth = 0
        self._last = None   # every workload simulates one string back to back

    def simulate(self, a, w: TimedString, index) -> bool:
        started = perf_counter()
        result = A.simulate(a, w, index)
        self.simulate_s.append(perf_counter() - started)
        self.events += len(w)
        self.verdicts += 1
        self.attempted += 1
        self.accepted += result.accepted
        for configs in result.trace:
            self.positions += 1
            self.configs += len(configs)
            self.live_positions += bool(configs)
        if w is not self._last:
            self._last = w
            self.lengths.append(len(w))
            self.max_depth = max(self.max_depth, nesting_depth(w))
        return result.accepted

    def determinize(self, construct, a, count_size: bool):
        started = perf_counter()
        det = construct(a)
        self.determinize_s.append(perf_counter() - started)
        if count_size:
            self.det_sizes.append((len(det.states), len(det.stack),
                                   len(det.rules)))
        return det

    def wrong(self, count: int = 1) -> None:
        """Verdicts already counted as attempted that turned out wrong."""
        self.failed += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def error(self, exc: Exception) -> None:
        self.check(False, f"{type(exc).__name__}: {exc}")


def nesting_depth(w: TimedString) -> int:
    depth = deepest = 0
    calls, returns = w.alphabet.calls, w.alphabet.returns
    for sym, _ in w.events:
        if sym in calls:
            depth += 1
            deepest = max(deepest, depth)
        elif sym in returns and depth:
            depth -= 1
    return deepest


# --- monitor ------------------------------------------------------------------

MONITOR_ALPHABET = PartitionedAlphabet({"<"}, {">"}, {"c", "d"})

# Every monitor automaton keeps a hub state q0 with a `true` move on every
# symbol, stack symbol and the empty stack, so some configuration is alive at
# every position of every string; the guarded states decide acceptance.
_HUB = [("q0", "c", "true", "q0", None), ("q0", "d", "true", "q0", None),
        ("q0", "<", "true", "q0", "g"), ("q0", ">", "true", "q0", "g"),
        ("q0", ">", "true", "q0", "bottom")]

# (states, accepting, stack, rules); a rule is (src, symbol, guard, dst,
# push or pop symbol).
MONITOR_AUTOMATA = [
    (["q0", "q1"], ["q1"], ["g", "h"], _HUB + [
        ("q0", ">", "true", "q0", "h"),
        ("q0", "<", "stackpred <= 3", "q1", "h"),
        ("q1", "c", "hist(<) <= 3", "q1", None),
        ("q1", "d", "pred(>) < 2", "q1", None),
        ("q1", "<", "true", "q1", "g"),
        ("q1", ">", "stackhist <= 4", "q1", "g"),
        ("q1", ">", "stackhist >= 1/2", "q1", "h"),
        ("q1", ">", "true", "q0", "bottom")]),
    (["q0", "q1", "q2"], ["q2"], ["g", "k"], _HUB + [
        ("q0", ">", "true", "q0", "k"),
        ("q0", "c", "pred(d) <= 3 or hist(c) >= 1", "q1", None),
        ("q1", "c", "true", "q1", None),
        ("q1", "d", "hist(c) <= 2", "q2", None),
        ("q1", "d", "true", "q1", None),
        ("q1", "<", "stackpred >= 1", "q1", "k"),
        ("q1", ">", "stackhist >= 1", "q1", "k"),
        ("q1", ">", "true", "q1", "g"),
        ("q1", ">", "true", "q0", "bottom"),
        ("q2", "c", "true", "q2", None),
        ("q2", "d", "hist(d) >= 1", "q1", None),
        ("q2", "<", "stackpred < 4", "q2", "k"),
        ("q2", ">", "true", "q2", "k"),
        ("q2", ">", "stackhist <= 3", "q1", "g"),
        ("q2", ">", "true", "q2", "bottom")]),
    (["q0", "q1", "q2"], ["q2"], ["g", "a", "b"], _HUB + [
        ("q0", ">", "true", "q0", "a"),
        ("q0", ">", "true", "q0", "b"),
        ("q0", "<", "stackpred <= 2 or hist(d) <= 1", "q1", "a"),
        ("q1", "c", "not pred(>) <= 1", "q1", None),
        ("q1", "d", "hist(>) >= 1 or pred(c) >= 1/2", "q2", None),
        ("q1", "d", "true", "q1", None),
        ("q1", "<", "true", "q1", "a"),
        ("q1", ">", "stackhist >= 1 or hist(c) <= 1", "q1", "a"),
        ("q1", ">", "true", "q0", "g"),
        ("q1", ">", "true", "q1", "bottom"),
        ("q2", "c", "pred(<) <= 3", "q2", None),
        ("q2", "d", "true", "q2", None),
        ("q2", "<", "stackpred >= 1/2", "q2", "b"),
        ("q2", ">", "true", "q2", "b"),
        ("q2", ">", "stackhist <= 2", "q1", "a"),
        ("q2", ">", "true", "q2", "g"),
        ("q2", ">", "true", "q0", "bottom")]),
]

# Per-event cost grows with string length.  Every round runs each automaton
# on a fresh string of each length, so all rounds have the same mix and the
# latency quantiles fall at the same place in it whatever the round count.
# Lengths are evenly spaced so that the latencies have no wide gaps for a
# quantile to jump across; one round gives 45 simulate samples.
MONITOR_LENGTHS = (100, 175, 250, 325, 400)
MONITOR_MAX_DEPTH = 10
MONITOR_POOL = 8   # distinct rounds of strings before inputs repeat
_STEPS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
          Fraction(3, 2)]


def monitor_automaton(spec) -> A.Ecidpda:
    states, accepting, stack, table = spec
    rules = []
    for src, sym, guard, dst, extra in table:
        g = parse_guard(guard)
        if sym in MONITOR_ALPHABET.calls:
            rules.append(A.CallRule(src, sym, g, dst, extra))
        elif sym in MONITOR_ALPHABET.returns:
            pop = None if extra == "bottom" else extra
            rules.append(A.ReturnRule(src, sym, pop, g, dst))
        else:
            rules.append(A.InternalRule(src, sym, g, dst))
    return A.Ecidpda(MONITOR_ALPHABET, states, ["q0"], accepting, stack, rules)


def bracket_string(rng: random.Random, length: int) -> TimedString:
    """A bracket-heavy random walk: 36% calls (none beyond the depth cap),
    36% returns (popping the empty stack at depth 0, so unmatched returns
    occur, while calls still open at the end stay unmatched), 28% internals.
    """
    events = []
    t = Fraction(0)
    depth = 0
    for _ in range(length):
        t += rng.choice(_STEPS)
        x = rng.random()
        if x < 0.36 and depth < MONITOR_MAX_DEPTH:
            sym = "<"
            depth += 1
        elif x < 0.72:
            sym = ">"
            depth = max(0, depth - 1)
        else:
            sym = "c" if x < 0.86 else "d"
        events.append((sym, t))
    return TimedString(MONITOR_ALPHABET, events)


@dataclass
class MonitorInputs:
    sources: list
    forms: list            # per automaton: [(automaton, RuleIndex)] x 3 forms
    rounds: list           # per round: [(automaton number, string)]
    det_sizes: list


def monitor_setup(seed: int, tally: Tally) -> MonitorInputs:
    sources = [monitor_automaton(spec) for spec in MONITOR_AUTOMATA]
    forms, det_sizes = [], []
    for a in sources:
        variants = [a]
        for construct in (D.determinize_direct,
                          D.determinize_no_stack_prediction):
            det = tally.determinize(construct, a, count_size=False)
            det_sizes.append((len(det.states), len(det.stack),
                              len(det.rules)))
            variants.append(det)
        forms.append([(v, A.RuleIndex(v)) for v in variants])
    rng = random.Random(seed)
    rounds = [[(i, bracket_string(rng, length))
               for i in range(len(sources)) for length in MONITOR_LENGTHS]
              for _ in range(MONITOR_POOL)]
    return MonitorInputs(sources, forms, rounds, det_sizes)


def monitor_round(inputs: MonitorInputs, r: int, tally: Tally) -> None:
    if r == 0:
        tally.det_sizes.extend(inputs.det_sizes)
    for i, w in inputs.rounds[r % len(inputs.rounds)]:
        try:
            verdicts = [tally.simulate(a, w, index)
                        for a, index in inputs.forms[i]]
        except Exception as exc:  # a failed call is a counted failure
            tally.error(exc)
            continue
        tally.wrong(sum(v != verdicts[0] for v in verdicts[1:]))


# --- campaign -----------------------------------------------------------------

CAMPAIGN_MODES = {
    "untimed": "determinize_untimed",
    "direct": "determinize_direct",
    "nostackpred": "determinize_no_stack_prediction",
}
# With at most 3 source states single draws take seconds and emit millions of
# rules, so a run would spend most of its time on a few draws; 2 states keep
# a tail of p99 ~ 15x p50.  The automata come from a fixed generator seed, so
# their output sizes (det_*) repeat exactly across runs and seeds; `--seed`
# draws the timed strings they are checked on.
CAMPAIGN_POOL_SEED = 0
CAMPAIGN_DRAWS = 2000       # per construction
CAMPAIGN_STRINGS = 4        # timed strings per draw, at most 12 events each
CAMPAIGN_GENERATOR = {"max_states": 2, "max_stack": 2, "max_atoms": 2}
CAMPAIGN_BLOCK = 60         # draws per round; divides 3 * CAMPAIGN_DRAWS


@dataclass
class CampaignInputs:
    draws: list             # (mode, source, strings)

    @property
    def sources(self):
        return [a for _, a, _ in self.draws]


def campaign_setup(seed: int, tally: Tally) -> CampaignInputs:
    pool = random.Random(CAMPAIGN_POOL_SEED)
    rng = random.Random(seed)
    draws = []
    for _ in range(CAMPAIGN_DRAWS):
        for mode in CAMPAIGN_MODES:
            a = random_automaton(pool, timed=(mode != "untimed"),
                                 **CAMPAIGN_GENERATOR)
            strings = [random_timed_string(rng, a.alphabet)
                       for _ in range(CAMPAIGN_STRINGS)]
            draws.append((mode, a, strings))
    return CampaignInputs(draws)


def campaign_round(inputs: CampaignInputs, r: int, tally: Tally) -> None:
    """A block of draws; each is constructed, certified deterministic and
    within its size bound, then its verdicts are compared with the source's
    on the draw's strings.  Sizes count on the first pass only."""
    for j in range(r * CAMPAIGN_BLOCK, (r + 1) * CAMPAIGN_BLOCK):
        mode, a, strings = inputs.draws[j % len(inputs.draws)]
        try:
            construct = getattr(D, CAMPAIGN_MODES[mode])
            det = tally.determinize(construct, a,
                                    count_size=j < len(inputs.draws))
            state_bound, stack_bound = _theoretical_bounds(a, mode)
            tally.check(A.is_deterministic(det) == A.DETERMINISTIC,
                        f"{mode} output not deterministic (draw {j})")
            tally.check(len(det.states) <= state_bound
                        and len(det.stack) <= stack_bound,
                        f"{mode} output exceeds its size bound (draw {j})")
            src_index, det_index = A.RuleIndex(a), A.RuleIndex(det)
            for w in strings:
                want = tally.simulate(a, w, src_index)
                if tally.simulate(det, w, det_index) != want:
                    tally.wrong()
        except Exception as exc:
            tally.error(exc)


def campaign_first_pass(inputs: CampaignInputs) -> int:
    return len(inputs.draws) // CAMPAIGN_BLOCK


# --- witness ------------------------------------------------------------------

# Small parameter pairs are compiled every round; the large one, the real
# lower-bound case (164,132 rules), is compiled once per run, in the measured
# time, and then carries its share of every round's spec checks.  Its compile
# is the slowest determinization, so determinize_tail_ms (the maximum) times
# it.
WITNESS_SMALL = ((1, 2), (2, 1), (1, 3))
WITNESS_LARGE = (2, 2)
WITNESS_SPECS = 60          # per parameter pair and round
WITNESS_POOL = 24


def random_spec(rng: random.Random, n: int, k: int) -> W.WitnessSpec:
    """A uniform draw from the exhaustive enumeration of `ecidpda witness`
    (relations and event sets are uniform subsets), with m = 1 or 2."""
    m = rng.choice((1, 2))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    events = range(1, k + 1)
    return W.WitnessSpec(
        n, k, m,
        tuple(rng.randrange(n) for _ in range(m + 1)),
        tuple(frozenset(p for p in pairs if rng.random() < 0.5)
              for _ in range(m)),
        tuple(frozenset(e for e in events if rng.random() < 0.5)
              for _ in range(m)),
        tuple(frozenset(e for e in events if rng.random() < 0.5)
              for _ in range(m)))


@dataclass
class WitnessInputs:
    rounds: list            # per round: {(n, k): [spec]}
    large: tuple = ()       # (nfa, nfa index, dfa, dfa index) once compiled
    sources: list = field(default_factory=list)


def witness_setup(seed: int, tally: Tally) -> WitnessInputs:
    rng = random.Random(seed)
    rounds = [{nk: [random_spec(rng, *nk) for _ in range(WITNESS_SPECS)]
               for nk in WITNESS_SMALL + (WITNESS_LARGE,)}
              for _ in range(WITNESS_POOL)]
    return WitnessInputs(rounds)


def _witness_compile(nk, tally: Tally, count_size: bool):
    nfa = W.build_witness_nfa(*nk)
    dfa = tally.determinize(D.determinize_direct, nfa, count_size)
    return nfa, A.RuleIndex(nfa), dfa, A.RuleIndex(dfa)


def _witness_check(compiled, specs, tally: Tally) -> None:
    nfa, nfa_index, dfa, dfa_index = compiled
    for spec in specs:
        try:
            w = W.build_well_formed(spec)
            want = W.is_valid(spec)
            tally.wrong((tally.simulate(nfa, w, nfa_index) != want)
                        + (tally.simulate(dfa, w, dfa_index) != want))
        except Exception as exc:
            tally.error(exc)


def witness_round(inputs: WitnessInputs, r: int, tally: Tally) -> None:
    specs = inputs.rounds[r % len(inputs.rounds)]
    if r == 0:
        inputs.sources = []
        inputs.large = ()
    for nk in WITNESS_SMALL + (WITNESS_LARGE,):
        try:
            if nk != WITNESS_LARGE:
                compiled = _witness_compile(nk, tally, r == 0)
            elif r == 0:
                compiled = inputs.large = _witness_compile(nk, tally, True)
            else:
                compiled = inputs.large
        except Exception as exc:
            tally.error(exc)
            continue
        if r == 0:
            inputs.sources.append(compiled[0])
        if compiled:
            _witness_check(compiled, specs[nk], tally)


@dataclass(frozen=True)
class Workload:
    setup: object
    round: object
    # Tail percentile per timing, fixed so that a faster program reports the
    # same percentile: the highest of p99/p95/p75 that has ten samples beyond
    # it after the first pass alone.  None: the maximum (monitor times only
    # its 18 set-up determinizations; witness's maximum is the (2, 2)
    # compile).
    tails: dict
    first_pass: object = lambda inputs: 1


WORKLOADS = {
    "monitor": Workload(monitor_setup, monitor_round,
                        {"simulate": 75, "determinize": None}),
    "campaign": Workload(campaign_setup, campaign_round,
                         {"simulate": 99, "determinize": 99},
                         campaign_first_pass),
    "witness": Workload(witness_setup, witness_round,
                        {"simulate": 95, "determinize": None}),
}
