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

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "AlphabetCodec": "repro.logic.codec",
    "And": "repro.logic.expr",
    "Const": "repro.logic.expr",
    "EventRef": "repro.logic.expr",
    "Expr": "repro.logic.expr",
    "FALSE": "repro.logic.expr",
    "Not": "repro.logic.expr",
    "Or": "repro.logic.expr",
    "PropRef": "repro.logic.expr",
    "ScoreboardCheck": "repro.logic.expr",
    "TRUE": "repro.logic.expr",
    "Valuation": "repro.logic.valuation",
    "all_of": "repro.logic.expr",
    "any_of": "repro.logic.expr",
    "are_equivalent": "repro.logic.sat",
    "entails": "repro.logic.sat",
    "enumerate_valuations": "repro.logic.valuation",
    "is_satisfiable": "repro.logic.sat",
    "is_tautology": "repro.logic.sat",
    "jointly_satisfiable": "repro.logic.sat",
    "parse_expr": "repro.logic.parser",
    "symbols_of": "repro.logic.expr",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
