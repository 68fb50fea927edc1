"""Formal semantics of CESC: states, runs, and chart denotations.

The paper defines a *state* as a truth assignment over ``PROP`` and
``EVENTS`` and a *run* as a map from clock ticks to states.  A chart
denotes the set of runs containing a finite window in which events
occur as the chart specifies — see Figure 3's semantic mapping.

* :mod:`repro.semantics.state` — states and their valuation view;
* :mod:`repro.semantics.run` — finite traces, single- and multi-clock
  runs, global-run construction (union of component clock ticks);
* :mod:`repro.semantics.denotation` — window-matching and the run
  satisfaction relation ``r |= C`` for all chart constructs;
* :mod:`repro.semantics.generator` — random/satisfying/violating trace
  generation for tests and benchmarks.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "GlobalRun": "repro.semantics.run",
    "GlobalTick": "repro.semantics.run",
    "State": "repro.semantics.state",
    "Trace": "repro.semantics.run",
    "TraceGenerator": "repro.semantics.generator",
    "chart_window_lengths": "repro.semantics.denotation",
    "matches_window": "repro.semantics.denotation",
    "run_satisfies": "repro.semantics.denotation",
    "satisfying_windows": "repro.semantics.denotation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
