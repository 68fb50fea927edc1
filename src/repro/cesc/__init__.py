"""CESC — Clocked Event Sequence Charts.

The paper's visual specification language.  An :class:`~repro.cesc.ast.SCESC`
(Single Clocked Event Sequence Chart) is the atomic chart: instances,
clock grid lines (ticks), guarded events and causality arrows.
Composite charts (:mod:`repro.cesc.charts`) add the paper's structural
constructs — sequential/parallel composition, alternative, loop,
implication, and asynchronous (multi-clock) parallel composition.

Charts can be built three ways:

* the fluent builder API (:mod:`repro.cesc.builder`);
* the textual DSL (:mod:`repro.cesc.parser`);
* direct AST construction (:mod:`repro.cesc.ast`).

:mod:`repro.cesc.validate` checks well-formedness before synthesis.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "Alt": "repro.cesc.charts",
    "AsyncPar": "repro.cesc.charts",
    "CausalityArrow": "repro.cesc.ast",
    "Chart": "repro.cesc.charts",
    "Clock": "repro.cesc.ast",
    "CrossArrow": "repro.cesc.charts",
    "ENV": "repro.cesc.ast",
    "EventOccurrence": "repro.cesc.ast",
    "Implication": "repro.cesc.charts",
    "Instance": "repro.cesc.ast",
    "Loop": "repro.cesc.charts",
    "Par": "repro.cesc.charts",
    "SCESC": "repro.cesc.ast",
    "ScescChart": "repro.cesc.charts",
    "Seq": "repro.cesc.charts",
    "Tick": "repro.cesc.ast",
    "ev": "repro.cesc.builder",
    "parse_cesc": "repro.cesc.parser",
    "scesc": "repro.cesc.builder",
    "validate_chart": "repro.cesc.validate",
    "validate_scesc": "repro.cesc.validate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
