"""Comparison baselines for the monitor-synthesis evaluation.

The paper positions CESC synthesis against two alternatives:

* *temporal-logic monitor generation* ([17] Geilen, [18] FoCs): we
  provide an LTL engine with finite-trace (LTLf) semantics, a
  CESC-to-LTL translator, and a formula-progression monitor
  construction (:mod:`repro.baselines.ltl`, :mod:`.ltl_monitor`,
  :mod:`.cesc_to_ltl`);
* *manual monitor development*: hand-written checkers for the OCP and
  AMBA scenarios, including a deliberately buggy variant standing in
  for the error-prone manual flow the paper motivates
  (:mod:`repro.baselines.manual`).

:mod:`repro.baselines.naive` is the ablation baseline: window matching
without the KMP-style transition function.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "Always": "repro.baselines.ltl",
    "Atom": "repro.baselines.ltl",
    "Eventually": "repro.baselines.ltl",
    "LtlAnd": "repro.baselines.ltl",
    "LtlFormula": "repro.baselines.ltl",
    "LtlNot": "repro.baselines.ltl",
    "LtlOr": "repro.baselines.ltl",
    "LtlProgressionMonitor": "repro.baselines.ltl_monitor",
    "NaiveWindowMonitor": "repro.baselines.naive",
    "Next": "repro.baselines.ltl",
    "Until": "repro.baselines.ltl",
    "parse_ltl": "repro.baselines.ltl",
    "scesc_to_ltl": "repro.baselines.cesc_to_ltl",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
