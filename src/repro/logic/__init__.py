"""Boolean logic substrate: expressions, valuations, SAT, minimisation.

This package provides the guard-expression machinery used throughout the
monitor synthesis pipeline:

* :mod:`repro.logic.expr` — the expression AST (events, propositions,
  scoreboard checks, the usual connectives) with evaluation,
  substitution, negation-normal-form and light simplification;
* :mod:`repro.logic.parser` — a textual expression parser;
* :mod:`repro.logic.valuation` — valuations (truth assignments over a
  finite alphabet) and alphabet enumeration;
* :mod:`repro.logic.sat` — a small DPLL SAT solver plus
  satisfiability / entailment / equivalence helpers used by the
  synthesis algorithm's compatibility checks;
* :mod:`repro.logic.qm` — Quine–McCluskey two-level minimisation, used
  to produce the compact figure-style guard expressions;
* :mod:`repro.logic.codec` — bitmask encoding of valuations over a
  fixed symbol ordering, the index space of the compiled monitor
  runtime's dense dispatch tables.
"""

from repro.logic.codec import AlphabetCodec
from repro.logic.expr import (
    FALSE,
    TRUE,
    And,
    Const,
    EventRef,
    Expr,
    Not,
    Or,
    PropRef,
    ScoreboardCheck,
    all_of,
    any_of,
    symbols_of,
)
from repro.logic.parser import parse_expr
from repro.logic.sat import (
    are_equivalent,
    entails,
    is_satisfiable,
    is_tautology,
    jointly_satisfiable,
)
from repro.logic.valuation import Valuation, enumerate_valuations

__all__ = [
    "AlphabetCodec",
    "And",
    "Const",
    "EventRef",
    "Expr",
    "FALSE",
    "Not",
    "Or",
    "PropRef",
    "ScoreboardCheck",
    "TRUE",
    "Valuation",
    "all_of",
    "any_of",
    "are_equivalent",
    "entails",
    "enumerate_valuations",
    "is_satisfiable",
    "is_tautology",
    "jointly_satisfiable",
    "parse_expr",
    "symbols_of",
]
