"""Formal analyses: spec consistency, the correctness theorem, coverage.

* :mod:`repro.analysis.consistency` — semantic lint of charts
  (unsatisfiable/tautological grid lines, degenerate arrows, ...);
* :mod:`repro.analysis.equivalence` — machinery for checking the
  paper's result ``[[C]] = Sigma* . L(M) . Sigma^w``: exhaustive
  small-alphabet language comparison, product-automaton equivalence of
  the ``Tr`` monitor against the exact subset detector, and sampled
  agreement on larger alphabets;
* :mod:`repro.analysis.coverage` — monitor state/transition coverage
  accumulated from simulation runs.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "CoverageCollector": "repro.analysis.coverage",
    "Finding": "repro.analysis.consistency",
    "check_consistency": "repro.analysis.consistency",
    "detectors_equivalent": "repro.analysis.equivalence",
    "exhaustive_theorem_check": "repro.analysis.equivalence",
    "sampled_theorem_check": "repro.analysis.equivalence",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
