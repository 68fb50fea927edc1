"""Monitor automata: the synthesized assertion monitors and their runtime.

The paper defines a monitor as a 5-tuple ``<Q, Sigma, delta, s0, sf>``
whose transitions carry a guard expression and a scoreboard action, and
whose runs from initial to final state accept exactly the windows in
which the specified scenario occurs.

* :mod:`repro.monitor.scoreboard` — the dynamic scoreboard (a multiset
  of recorded event occurrences) with ``Add_evt``/``Del_evt``/``Chk_evt``;
* :mod:`repro.monitor.automaton` — monitors, transitions and actions;
* :mod:`repro.monitor.engine` — the per-tick engines (interpreted,
  compiled, native) stepping a monitor over a trace, recording
  detections (visits to the final state);
* :mod:`repro.monitor.checker` — assertion-checker semantics
  (pass/fail verdicts for implication charts, overlapping obligations);
* :mod:`repro.monitor.network` — multi-clock monitor networks sharing
  one scoreboard (the paper's local-monitor composition);
* :mod:`repro.monitor.dot` / :mod:`repro.monitor.stats` — export and
  size metrics.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "AddEvt": "repro.monitor.automaton",
    "AssertionChecker": "repro.monitor.checker",
    "DelEvt": "repro.monitor.automaton",
    "Monitor": "repro.monitor.automaton",
    "MonitorEngine": "repro.monitor.engine",
    "MonitorNetwork": "repro.monitor.network",
    "MonitorResult": "repro.runtime.compiled",
    "NULL_ACTION": "repro.monitor.automaton",
    "NetworkResult": "repro.monitor.network",
    "NullAction": "repro.monitor.automaton",
    "Obligation": "repro.monitor.checker",
    "Scoreboard": "repro.monitor.scoreboard",
    "Transition": "repro.monitor.automaton",
    "Verdict": "repro.monitor.checker",
    "run_monitor": "repro.monitor.engine",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
