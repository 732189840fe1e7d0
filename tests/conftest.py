"""Shared fixtures and independent reference oracles for the test suite."""

from __future__ import annotations

import gc
import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ecidpda import PartitionedAlphabet, TimedString


@pytest.fixture(scope="session")
def bracket_alphabet() -> PartitionedAlphabet:
    return PartitionedAlphabet({"<"}, {">"}, {"c", "d"})


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload module, for its monitor automata and
    bracket-heavy strings."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads",
        Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def collector():
    """Restores the cyclic collector setting that a test changes."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.fixture(scope="session")
def example_string(bracket_alphabet) -> TimedString:
    """w = (c,0.1)(<,0.2)(<,0.4)(c,0.5)(>,0.7)(>,0.8)(d,1)."""
    F = Fraction
    return TimedString(bracket_alphabet, [
        ("c", F(1, 10)), ("<", F(2, 10)), ("<", F(4, 10)), ("c", F(5, 10)),
        (">", F(7, 10)), (">", F(8, 10)), ("d", F(1)),
    ])


def timed(alphabet: PartitionedAlphabet, symbols: str | list[str]
          ) -> TimedString:
    """Symbols with timestamps 1, 2, 3, ... (split on spaces if a string)."""
    if isinstance(symbols, str):
        symbols = symbols.split()
    return TimedString(alphabet,
                       [(sym, Fraction(i + 1)) for i, sym in enumerate(symbols)])


def reference_matching(symbols: list[str], alphabet: PartitionedAlphabet
                       ) -> dict[int, int]:
    """Stack-free quadratic bracket matcher used as an oracle.

    partner[i] = j both ways for every matched pair, computed by repeatedly
    matching innermost `< >` pairs.
    """
    unmatched = {i + 1 for i, sym in enumerate(symbols)
                 if sym in alphabet.calls or sym in alphabet.returns}
    partner: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for i in sorted(unmatched):
            if symbols[i - 1] not in alphabet.calls:
                continue
            inner = [j for j in unmatched if i < j]
            if not inner:
                continue
            j = min(inner)
            if symbols[j - 1] in alphabet.returns:
                partner[i], partner[j] = j, i
                unmatched -= {i, j}
                changed = True
                break
    return partner


def reference_suffix_start(symbols: list[str], i: int,
                           alphabet: PartitionedAlphabet) -> int:
    """Least s such that positions s..i form a well-nested string."""
    for s in range(1, i + 2):
        depth = 0
        ok = True
        for sym in symbols[s - 1:i]:
            if sym in alphabet.calls:
                depth += 1
            elif sym in alphabet.returns:
                depth -= 1
                if depth < 0:
                    ok = False
                    break
        if ok and depth == 0:
            return s
    return i + 1


def all_bracket_patterns(max_len: int):
    """Every call/return pattern of length 1..max_len."""
    for length in range(1, max_len + 1):
        for pattern in itertools.product("<>", repeat=length):
            yield list(pattern)


def random_symbols(rng: random.Random, alphabet: PartitionedAlphabet,
                   max_len: int = 14) -> list[str]:
    pool = sorted(alphabet.symbols)
    return [rng.choice(pool) for _ in range(rng.randint(0, max_len))]
