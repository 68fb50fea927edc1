"""Monitor synthesis: the paper's ``Tr`` algorithm and its variants.

* :mod:`repro.synthesis.pattern` — ``extract_pattern`` and the
  flattening of composite charts into pattern alternatives;
* :mod:`repro.synthesis.transition` — ``compute_transition_func``, the
  KMP-style transition table over Boolean-expression patterns;
* :mod:`repro.synthesis.causality` — ``add_causality_check``: the
  scoreboard ``Add_evt``/``Chk_evt``/``Del_evt`` discipline;
* :mod:`repro.synthesis.tr` / :mod:`repro.synthesis.dense` — the main
  paper-faithful construction producing a
  :class:`~repro.monitor.automaton.Monitor` (and ``tr_compiled``);
* :mod:`repro.synthesis.symbolic` — guard grouping + Quine–McCluskey
  minimisation, recovering the figure-style symbolic monitors;
* :mod:`repro.synthesis.subset` — the exact ``Sigma* . L`` detector via
  subset construction (reference oracle);
* :mod:`repro.synthesis.compose` — synthesis for composite charts
  (Seq/Par/Alt/Loop/Implication) via pattern algebra and monitor banks;
* :mod:`repro.synthesis.multiclock` — local-monitor networks for
  asynchronous (multi-clock) compositions.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "FlatArrow": "repro.synthesis.pattern",
    "FlatPattern": "repro.synthesis.pattern",
    "MonitorBank": "repro.synthesis.compose",
    "SubsetMonitor": "repro.synthesis.subset",
    "extract_pattern": "repro.synthesis.pattern",
    "flatten_chart": "repro.synthesis.pattern",
    "symbolic_monitor": "repro.synthesis.symbolic",
    "synthesize_chart": "repro.synthesis.compose",
    "synthesize_monitor": "repro.synthesis.dense",
    "synthesize_network": "repro.synthesis.multiclock",
    "tr": "repro.synthesis.tr",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
