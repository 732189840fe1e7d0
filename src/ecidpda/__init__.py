"""Event-clock input-driven pushdown automata: exact timed-string semantics,
nondeterministic simulation, determinization, and lower-bound witnesses.
"""

from .automata import (AutomatonError, CallRule, Configuration, DETERMINISTIC,
                       Ecidpda, InternalRule, NondeterminismWitness,
                       ReturnRule, Rule, RunResult, embed_untimed,
                       is_deterministic, simulate)
from .constraints import (And, Atom, Constraint, ConstraintError, FALSE, Not,
                          Or, POSSIBLY_OVERLAPPING, PROVABLY_EXCLUSIVE, TRUE,
                          atom, atoms, desugar, eval_under, evaluate,
                          format_guard, mutually_exclusive, parse_guard, xi)
from .determinize import (determinize_direct, determinize_no_stack_prediction,
                          determinize_untimed, pair_semantics_oracle)
from .rat import format_rational, parse_rational
from .timed import (Clock, ClockKind, PartitionedAlphabet, TimedString,
                    TimedStringError, clock_value, compute_matching, hist,
                    load_timed_string, longest_well_nested_suffix_start, pred,
                    stack_hist, stack_pred)
from .witness import (SuffixPlan, WitnessError, WitnessSpec, build_prefix,
                      build_suffix, build_well_formed, build_witness_nfa,
                      combined_spec, concat_timed, distinguishing_suffix,
                      distinguishing_suffix_plan, enumerate_specs, is_valid,
                      load_witness_spec, witness_alphabet)

__all__ = [name for name in dir() if not name.startswith("_")]
