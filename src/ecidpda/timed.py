"""Timed strings over a partitioned alphabet, bracket matching, clock values.

Symbols are split into calls (left brackets), returns (right brackets) and
internals; timestamps are exact rationals and must strictly increase.
Positions are 1-based throughout.

Event clocks are fixed by the string alone, so each `TimedString` keeps a
clock index.  Its constructor stores the string's scale D, the lcm of the
timestamp denominators, and the int ticks T_i = t_i * D, so a clock value,
a difference of two timestamps, is a difference of two ticks over D
(`clock_ticks` returns it as ticks, `clock_value` as a `Fraction`).  Scaling
every value by D changes no comparison, so atoms compare ints exactly (Alur
and Dill, A theory of timed automata, TCS 1994).  The rest of the index is
filled in on first use: the bracket-partner array (from `compute_matching`)
on the first stack-clock read, and a symbol's sorted occurrence positions on
the first `hist`/`pred` read of that symbol.  Building a part costs one O(n)
scan; every later read is an array lookup or a binary search over one
symbol's positions.

D grows with the product of distinct denominators, so a string whose D
would need more than MAX_SCALE_BITS bits is refused.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Optional, Sequence

from .rat import format_rational, parse_rational


class TimedStringError(ValueError):
    """Raised on malformed alphabets, events or timestamps."""


# The largest scale, in bits, that a timed string may have.  A 308-digit
# decimal timestamp still fits.  Without a limit, n timestamps with distinct
# prime denominators would make D, and so each tick, about as long as all n
# primes together: memory quadratic in n.
MAX_SCALE_BITS = 1024


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass(frozen=True)
class PartitionedAlphabet:
    calls: frozenset[str]
    returns: frozenset[str]
    internals: frozenset[str]

    def __init__(self, calls: Iterable[str], returns: Iterable[str],
                 internals: Iterable[str]):
        object.__setattr__(self, "calls", frozenset(calls))
        object.__setattr__(self, "returns", frozenset(returns))
        object.__setattr__(self, "internals", frozenset(internals))
        if not (self.calls or self.returns or self.internals):
            raise TimedStringError("alphabet is empty")
        if (self.calls & self.returns or self.calls & self.internals
                or self.returns & self.internals):
            raise TimedStringError("alphabet classes are not disjoint")
        # Kept in the instance dict, outside the dataclass fields, so the
        # union takes no part in eq, hash or repr.
        object.__setattr__(self, "_symbols",
                           self.calls | self.returns | self.internals)

    @property
    def symbols(self) -> frozenset[str]:
        return self._symbols

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._symbols

    def to_json(self) -> dict:
        return {
            "calls": sorted(self.calls),
            "returns": sorted(self.returns),
            "internals": sorted(self.internals),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PartitionedAlphabet":
        if not isinstance(data, dict):
            raise TimedStringError("an alphabet must be a JSON object")
        classes = [data.get(name, [])
                   for name in ("calls", "returns", "internals")]
        if not all(_is_string_list(c) for c in classes):
            raise TimedStringError("alphabet classes must be lists of strings")
        return cls(*classes)


class ClockKind(Enum):
    SYMBOL_HISTORY = "hist"
    SYMBOL_PREDICTION = "pred"
    STACK_HISTORY = "stackhist"
    STACK_PREDICTION = "stackpred"


_KIND_ORDER = {
    ClockKind.SYMBOL_HISTORY: 0,
    ClockKind.SYMBOL_PREDICTION: 1,
    ClockKind.STACK_HISTORY: 2,
    ClockKind.STACK_PREDICTION: 3,
}


@dataclass(frozen=True)
class Clock:
    """One of the four event-clock kinds; stack clocks carry no symbol."""

    kind: ClockKind
    symbol: Optional[str] = None

    def __post_init__(self):
        needs_symbol = self.kind in (ClockKind.SYMBOL_HISTORY,
                                     ClockKind.SYMBOL_PREDICTION)
        if needs_symbol and not self.symbol:
            raise TimedStringError(f"{self.kind.value} clock needs a symbol")
        if not needs_symbol and self.symbol is not None:
            raise TimedStringError(f"{self.kind.value} clock takes no symbol")
        # The generated hash's value, computed once, as for Atom.
        object.__setattr__(self, "_hash", hash((self.kind, self.symbol)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Clock, (self.kind, self.symbol))

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.symbol or "")

    def __str__(self) -> str:
        if self.symbol is not None:
            return f"{self.kind.value}({self.symbol})"
        return self.kind.value


def hist(symbol: str) -> Clock:
    return Clock(ClockKind.SYMBOL_HISTORY, symbol)


def pred(symbol: str) -> Clock:
    return Clock(ClockKind.SYMBOL_PREDICTION, symbol)


def stack_hist() -> Clock:
    return Clock(ClockKind.STACK_HISTORY)


def stack_pred() -> Clock:
    return Clock(ClockKind.STACK_PREDICTION)


@dataclass(frozen=True)
class TimedString:
    alphabet: PartitionedAlphabet
    events: tuple[tuple[str, Fraction], ...]

    def __init__(self, alphabet: PartitionedAlphabet,
                 events: Sequence[tuple[str, Fraction]]):
        events = tuple((sym, t if type(t) is Fraction else Fraction(t))
                       for sym, t in events)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "events", events)
        ratios = [t.as_integer_ratio() for _, t in events]
        scale = 1
        for pos, (_, den) in enumerate(ratios, start=1):
            if scale % den:
                scale = lcm(scale, den)
                if scale.bit_length() > MAX_SCALE_BITS:
                    raise TimedStringError(
                        f"the timestamps up to position {pos} need a common "
                        f"denominator of more than {MAX_SCALE_BITS} bits")
        ticks = tuple([num * (scale // den) for num, den in ratios])
        symbols = alphabet.symbols
        for pos, (sym, _) in enumerate(events):
            if sym not in symbols:
                raise TimedStringError(
                    f"symbol {sym!r} at position {pos + 1} is not in the "
                    f"alphabet")
            if pos and ticks[pos] <= ticks[pos - 1]:
                raise TimedStringError(
                    f"timestamps must strictly increase at position {pos + 1}")
        # Kept in the instance dict, outside the dataclass fields, so the
        # clock index takes no part in eq, hash or repr.
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_ticks", ticks)

    def __len__(self) -> int:
        return len(self.events)

    def symbol(self, i: int) -> str:
        """Symbol at 1-based position i."""
        self._check_pos(i)
        return self.events[i - 1][0]

    def time(self, i: int) -> Fraction:
        self._check_pos(i)
        return self.events[i - 1][1]

    @property
    def scale(self) -> int:
        """D, the lcm of the timestamp denominators: every timestamp and
        clock value is an integer multiple of 1/D."""
        return self._scale

    def _check_pos(self, i: int) -> None:
        if not 1 <= i <= len(self.events):
            raise IndexError(f"position {i} out of range 1..{len(self.events)}")

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.events)

    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet.to_json(),
            "events": [[sym, format_rational(t)] for sym, t in self.events],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TimedString":
        if not isinstance(data, dict):
            raise TimedStringError("a timed string must be a JSON object")
        alphabet = PartitionedAlphabet.from_json(data["alphabet"])
        if not isinstance(data["events"], list):
            raise TimedStringError("events must be a list")
        events = []
        for pos, event in enumerate(data["events"], start=1):
            if not (_is_string_list(event) and len(event) == 2):
                raise TimedStringError(
                    f"event {pos}: expected [symbol, timestamp] strings, "
                    f"got {event!r}")
            try:
                events.append((event[0], parse_rational(event[1])))
            except ValueError as exc:
                raise TimedStringError(f"event {pos}: {exc}") from exc
        return cls(alphabet, events)


@dataclass(frozen=True)
class Matching:
    """Bracket partners per 1-based position; None when unmatched."""

    partner: tuple[Optional[int], ...]

    def __getitem__(self, i: int) -> Optional[int]:
        if not 1 <= i <= len(self.partner):
            raise IndexError(
                f"position {i} out of range 1..{len(self.partner)}")
        return self.partner[i - 1]


@lru_cache(maxsize=4096)
def compute_matching(w: TimedString) -> Matching:
    """Single-scan matching: a right bracket pops the nearest unmatched left
    bracket; brackets left on the scan stack (or popping empty) are unmatched.
    """
    partner: list[Optional[int]] = [None] * len(w)
    stack: list[int] = []
    for i in range(1, len(w) + 1):
        sym = w.symbol(i)
        if sym in w.alphabet.calls:
            stack.append(i)
        elif sym in w.alphabet.returns:
            if stack:
                j = stack.pop()
                partner[j - 1] = i
                partner[i - 1] = j
    return Matching(tuple(partner))


def clock_value(w: TimedString, i: int, clock: Clock) -> Optional[Fraction]:
    """Value of an event clock at position i, or None when undefined."""
    ticks = clock_ticks(w, i, clock)
    return None if ticks is None else Fraction(ticks, w.scale)


def clock_ticks(w: TimedString, i: int, clock: Clock) -> Optional[int]:
    """Value of an event clock at position i times the string's scale
    `w.scale`, an int, or None when undefined.

    The first read of a clock kind (per symbol for hist/pred) on a string
    indexes it in O(n); later reads cost O(log n).
    """
    w._check_pos(i)
    # The index lives in the instance dict, outside the dataclass fields, so
    # it takes no part in eq, hash or repr.
    index = w.__dict__
    ticks = index["_ticks"]
    kind = clock.kind
    if kind is ClockKind.STACK_HISTORY or kind is ClockKind.STACK_PREDICTION:
        partner = index.get("_partner")
        if partner is None:
            partner = index["_partner"] = compute_matching(w).partner
        # A matched return's partner comes before it, a matched call's after.
        j = partner[i - 1]
        if j is None:
            return None
        if kind is ClockKind.STACK_HISTORY:
            return ticks[i - 1] - ticks[j - 1] if j < i else None
        return ticks[j - 1] - ticks[i - 1] if j > i else None
    occurrences = index.get("_occurrences")
    if occurrences is None:
        occurrences = index["_occurrences"] = {}
    at = occurrences.get(clock.symbol)
    if at is None:
        at = occurrences[clock.symbol] = [
            j for j, (sym, _) in enumerate(w.events, start=1)
            if sym == clock.symbol]
    if kind is ClockKind.SYMBOL_HISTORY:
        k = bisect_left(at, i)
        return ticks[i - 1] - ticks[at[k - 1] - 1] if k else None
    k = bisect_right(at, i)
    return ticks[at[k] - 1] - ticks[i - 1] if k < len(at) else None


def longest_well_nested_suffix_start(w: TimedString, i: int) -> int:
    """Least s such that positions s..i are well-nested (s = i+1 if only the
    empty suffix is). The suffix starts right after the last bracket that is
    unmatched within the prefix 1..i.
    """
    if not 0 <= i <= len(w):
        raise IndexError(f"prefix length {i} out of range 0..{len(w)}")
    open_calls: list[int] = []
    last_bad_return = 0
    for j in range(1, i + 1):
        sym = w.symbol(j)
        if sym in w.alphabet.calls:
            open_calls.append(j)
        elif sym in w.alphabet.returns:
            if open_calls:
                open_calls.pop()
            else:
                last_bad_return = j
    last_unmatched = max(last_bad_return, open_calls[-1] if open_calls else 0)
    return last_unmatched + 1


def load_timed_string(path: str) -> TimedString:
    """Load a timed string from a JSON file, or from line-oriented text when
    the content does not start with `{`.

    Line format: `symbol timestamp` per event, `#`-comments allowed, preceded
    by three directive lines `calls: ...`, `returns: ...`, `internals: ...`
    listing the alphabet.  Timestamps, in both formats, are integers,
    decimals or p/q, with an optional sign.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
        data = None
        if content.lstrip().startswith("{"):
            data = json.loads(content)
    except (UnicodeDecodeError, RecursionError) as exc:
        raise TimedStringError(f"unreadable timed string: {exc}") from exc
    if data is not None:
        return TimedString.from_json(data)
    classes = {"calls": [], "returns": [], "internals": []}
    events: list[tuple[str, Fraction]] = []
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(":", 1)[0].strip()
        if head in classes and ":" in line:
            classes[head] = line.split(":", 1)[1].split()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TimedStringError(
                f"line {lineno}: expected 'symbol timestamp', got {raw!r}")
        try:
            events.append((parts[0], parse_rational(parts[1])))
        except ValueError as exc:
            raise TimedStringError(f"line {lineno}: {exc}") from exc
    alphabet = PartitionedAlphabet(classes["calls"], classes["returns"],
                                   classes["internals"])
    return TimedString(alphabet, events)
