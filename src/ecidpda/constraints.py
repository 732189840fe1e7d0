"""Clock-constraint ASTs, evaluation, truth-assignment semantics, the
feasible truth sets of an atom universe, and a sound exclusivity check.

An atomic constraint compares one clock against a nonnegative rational with
`<=` or `>=`; an atom is false whenever its clock is undefined.  `=`, `<`
and `>` are derived forms.  `TRUE`/`FALSE` constants extend the grammar so
untimed automata embed with trivially-true guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .rat import format_rational, parse_rational
from .timed import Clock, TimedString, hist, pred, stack_hist, stack_pred
# Atoms read their clocks as int ticks through this module attribute, which
# the benchmark's traced run wraps as its `timed.clock_value` layer.  ROADMAP
# item 1 re-points that layer at `clock_ticks`; the alias then goes.
from .timed import clock_ticks as clock_value


class ConstraintError(ValueError):
    """Raised on malformed constraints or guard-text parse errors."""


@dataclass(frozen=True)
class Atom:
    clock: Clock
    op: str  # "<=" or ">="
    bound: Fraction

    def __post_init__(self):
        if self.op not in ("<=", ">="):
            raise ConstraintError(f"atomic operator must be <= or >=: {self.op}")
        if self.bound < 0:
            raise ConstraintError("atomic bound must be nonnegative")

    def sort_key(self) -> tuple:
        return (*self.clock.sort_key(), self.op, self.bound)

    def __str__(self) -> str:
        return f"{self.clock} {self.op} {format_rational(self.bound)}"


@dataclass(frozen=True)
class And:
    left: "Constraint"
    right: "Constraint"


@dataclass(frozen=True)
class Or:
    left: "Constraint"
    right: "Constraint"


@dataclass(frozen=True)
class Not:
    inner: "Constraint"


@dataclass(frozen=True)
class _Const:
    value: bool


TRUE = _Const(True)
FALSE = _Const(False)

Constraint = object  # Atom | And | Or | Not | _Const


def atom(clock: Clock, op: str, bound) -> Atom:
    return Atom(clock, op, Fraction(bound))


def desugar(op: str, clock: Clock, bound) -> Constraint:
    """Expand `=`, `<`, `>` (and pass through `<=`, `>=`) into the base AST."""
    bound = Fraction(bound)
    le = Atom(clock, "<=", bound)
    ge = Atom(clock, ">=", bound)
    if op == "<=":
        return le
    if op == ">=":
        return ge
    if op == "=":
        return And(le, ge)
    if op == "<":
        return And(le, Not(ge))
    if op == ">":
        return And(ge, Not(le))
    raise ConstraintError(f"unknown comparison operator: {op}")


def evaluate(phi: Constraint, w: TimedString, i: int) -> bool:
    """Truth of a constraint on w at position i (undefined clock => atom false)."""
    if isinstance(phi, Atom):
        return _atom_truth(phi, w, i)
    return eval_with(phi, lambda a: _atom_truth(a, w, i))


def _atom_truth(a: Atom, w: TimedString, i: int) -> bool:
    # With the clock read as v*D ticks, v <= p/q iff v*D*q <= p*D: exact
    # int comparisons, with no Fraction built.
    ticks = clock_value(w, i, a.clock)
    if ticks is None:
        return False
    bound = a.bound
    if a.op == "<=":
        return ticks * bound.denominator <= bound.numerator * w.scale
    return ticks * bound.denominator >= bound.numerator * w.scale


def _holds_at(a: Atom, value: Fraction) -> bool:
    """Truth of an atom when its clock is defined with the given value."""
    return value <= a.bound if a.op == "<=" else value >= a.bound


def eval_with(phi: Constraint, truth: Callable[[Atom], bool]) -> bool:
    """Truth of a constraint given the truth of each of its atoms."""
    if isinstance(phi, _Const):
        return phi.value
    if isinstance(phi, Atom):
        return truth(phi)
    if isinstance(phi, And):
        return eval_with(phi.left, truth) and eval_with(phi.right, truth)
    if isinstance(phi, Or):
        return eval_with(phi.left, truth) or eval_with(phi.right, truth)
    if isinstance(phi, Not):
        return not eval_with(phi.inner, truth)
    raise ConstraintError(f"not a constraint node: {phi!r}")


def atom_nodes(phi: Constraint) -> Iterator[Atom]:
    """The Atom leaves of phi, left to right, each occurrence once."""
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            yield node
        elif isinstance(node, (And, Or)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Not):
            stack.append(node.inner)
        elif not isinstance(node, _Const):
            raise ConstraintError(f"not a constraint node: {node!r}")


def atoms(phi: Constraint) -> frozenset[Atom]:
    """The set of Atom leaves of phi."""
    return frozenset(atom_nodes(phi))


def eval_under(phi: Constraint, true_atoms: Iterable[Atom]) -> bool:
    """Evaluate phi with each atom replaced by membership in `true_atoms`."""
    true_set = frozenset(true_atoms)
    return eval_with(phi, lambda a: a in true_set)


def sorted_atoms(universe: Iterable[Atom]) -> tuple[Atom, ...]:
    """Canonical (clock kind, symbol, op, bound) ordering of an atom set."""
    return tuple(sorted(set(universe), key=Atom.sort_key))


def xi(universe: Iterable[Atom], members: Iterable[Atom]) -> Constraint:
    """The constraint asserting that exactly `members` out of `universe` hold."""
    uni = sorted_atoms(universe)
    true_set = frozenset(members)
    if not true_set <= frozenset(uni):
        raise ConstraintError("members must be a subset of the universe")
    result: Constraint = TRUE
    first = True
    for a in uni:
        lit: Constraint = a if a in true_set else Not(a)
        result = lit if first else And(result, lit)
        first = False
    return result


PROVABLY_EXCLUSIVE = "provably-exclusive"
POSSIBLY_OVERLAPPING = "possibly-overlapping"


def feasible_truth_sets(universe: Sequence[Atom]) -> list[frozenset[Atom]]:
    """Every subset of a sorted atom universe that some relaxed valuation
    makes exactly true, in ascending bit-mask order, bit j standing for
    universe[j].

    A relaxed valuation gives each clock independently a value in [0, oo)
    or leaves it undefined, which makes all of its atoms false.  A clock's
    atoms change truth only at their bounds, so its region points, 0, each
    bound, a midpoint between each two bounds and one past the last bound,
    realize every truth set a defined value can (Alur and Dill, A theory of
    timed automata, TCS 1994).  The clocks combine as a product.
    """
    by_clock: dict[Clock, list[int]] = {}
    for j, a in enumerate(universe):
        by_clock.setdefault(a.clock, []).append(j)
    masks = {0}
    for bits in by_clock.values():
        bounds = sorted({universe[j].bound for j in bits})
        points = [Fraction(0), *bounds,
                  *[(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])],
                  bounds[-1] + 1]
        regions = {0}  # the clock is undefined
        for value in points:
            regions.add(sum(1 << j for j in bits
                            if _holds_at(universe[j], value)))
        masks = {mask | region for mask in masks for region in regions}
    return [frozenset(a for j, a in enumerate(universe) if mask >> j & 1)
            for mask in sorted(masks)]


def mutually_exclusive(phi: Constraint, psi: Constraint) -> str:
    """Sound exclusivity check over the relaxed per-clock model.

    PROVABLY_EXCLUSIVE implies the two constraints can never both be true at
    one position of one string; POSSIBLY_OVERLAPPING is inconclusive.
    """
    for true_set in feasible_truth_sets(sorted_atoms(atoms(phi) | atoms(psi))):
        if eval_under(phi, true_set) and eval_under(psi, true_set):
            return POSSIBLY_OVERLAPPING
    return PROVABLY_EXCLUSIVE


# --- guard text format ------------------------------------------------------

# Evaluating and formatting recurse once per level of a guard, so parse_guard
# rejects guards deeper than this, far below the interpreter's recursion
# limit; guards the constructions emit are one level deeper than the number
# of atoms they mention.
MAX_GUARD_DEPTH = 100

def format_guard(phi: Constraint) -> str:
    """Render a constraint in the guard grammar (parse_guard inverse)."""
    return _format(phi, 0)


def _format(phi: Constraint, prec: int) -> str:
    # `and` and `or` parse left-associative, so a right operand of the same
    # operator is bracketed: one precedence level higher than the left.
    if isinstance(phi, _Const):
        return "true" if phi.value else "false"
    if isinstance(phi, Atom):
        return f"{phi.clock} {phi.op} {format_rational(phi.bound)}"
    if isinstance(phi, Or):
        text = f"{_format(phi.left, 1)} or {_format(phi.right, 2)}"
        return f"({text})" if prec > 1 else text
    if isinstance(phi, And):
        text = f"{_format(phi.left, 2)} and {_format(phi.right, 3)}"
        return f"({text})" if prec > 2 else text
    if isinstance(phi, Not):
        return f"not {_format(phi.inner, 3)}"
    raise ConstraintError(f"not a constraint node: {phi!r}")


class _GuardParser:
    """Recursive descent over: or < and < not; atoms hist(a), pred(a),
    stackhist, stackpred with <= >= = < > and rational constants.

    Each parse method returns the constraint and its depth: one per node on
    the longest root-to-leaf path, plus one per enclosing pair of
    parentheses.  A depth above MAX_GUARD_DEPTH is rejected, and so is
    parenthesis or `not` nesting above it before the descent goes deeper.
    """

    _DESUGARED_DEPTH = {"<=": 1, ">=": 1, "=": 2, "<": 3, ">": 3}

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.nesting = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "()":
                tokens.append(ch)
                i += 1
            elif text[i:i + 2] in ("<=", ">="):
                tokens.append(text[i:i + 2])
                i += 2
            elif ch in "<>=":
                tokens.append(ch)
                i += 1
            else:
                j = i
                while j < len(text) and not text[j].isspace() and text[j] not in "()<>=":
                    j += 1
                tokens.append(text[i:j])
                i = j
        return tokens

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ConstraintError("unexpected end of guard")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ConstraintError(f"expected {tok!r}, got {got!r}")

    @staticmethod
    def _bounded(depth: int) -> int:
        if depth > MAX_GUARD_DEPTH:
            raise ConstraintError(
                f"guard nested deeper than {MAX_GUARD_DEPTH}")
        return depth

    def _nested(self, parse: Callable[[], tuple[Constraint, int]]
                ) -> tuple[Constraint, int]:
        """Parse under one more parenthesis or `not`; its result is at least
        that deep, so the nesting is bounded before recursing."""
        self.nesting = self._bounded(self.nesting + 1)
        phi, depth = parse()
        self.nesting -= 1
        return phi, self._bounded(depth + 1)

    def parse(self) -> Constraint:
        phi, _ = self.parse_or()
        if self.peek() is not None:
            raise ConstraintError(f"trailing tokens: {self.tokens[self.pos:]}")
        return phi

    def parse_or(self) -> tuple[Constraint, int]:
        phi, depth = self.parse_and()
        while self.peek() == "or":
            self.take()
            rhs, rhs_depth = self.parse_and()
            phi, depth = Or(phi, rhs), self._bounded(max(depth, rhs_depth) + 1)
        return phi, depth

    def parse_and(self) -> tuple[Constraint, int]:
        phi, depth = self.parse_not()
        while self.peek() == "and":
            self.take()
            rhs, rhs_depth = self.parse_not()
            phi, depth = And(phi, rhs), self._bounded(max(depth, rhs_depth) + 1)
        return phi, depth

    def parse_not(self) -> tuple[Constraint, int]:
        if self.peek() == "not":
            self.take()
            inner, depth = self._nested(self.parse_not)
            return Not(inner), depth
        return self.parse_atom()

    def parse_atom(self) -> tuple[Constraint, int]:
        tok = self.take()
        if tok == "(":
            if self.peek() == ")":
                raise ConstraintError("empty parentheses")
            phi, depth = self._nested(self.parse_or)
            self.expect(")")
            return phi, depth
        if tok == "true":
            return TRUE, 1
        if tok == "false":
            return FALSE, 1
        clock = self._parse_clock(tok)
        op = self.take()
        if op not in self._DESUGARED_DEPTH:
            raise ConstraintError(f"expected a comparison operator, got {op!r}")
        try:
            bound = parse_rational(self.take())
        except ValueError as exc:
            raise ConstraintError(str(exc)) from exc
        return desugar(op, clock, bound), self._DESUGARED_DEPTH[op]

    def _parse_clock(self, tok: str) -> Clock:
        if tok == "stackhist":
            return stack_hist()
        if tok == "stackpred":
            return stack_pred()
        for name, ctor in (("hist", hist), ("pred", pred)):
            if tok == name:
                self.expect("(")
                sym = self.take()
                self.expect(")")
                return ctor(sym)
            if tok.startswith(name + "(") and tok.endswith(")"):
                return ctor(tok[len(name) + 1:-1])
        raise ConstraintError(f"expected a clock, got {tok!r}")


def parse_guard(text: str) -> Constraint:
    if not isinstance(text, str):
        raise ConstraintError(f"a guard must be a string, got {text!r}")
    return _GuardParser(text).parse()
