"""Monitor optimization: shrink automata before the compiled runtime.

The pipeline (:func:`optimize_monitor` / :func:`optimize_compiled`)
composes behaviour-preserving passes over the paper's
``O((n+1) * 2^|Sigma|)`` table bound and the per-tick ladder cost:

* **scoreboard-aware minimisation** — the ``n + 1`` state factor
  (:func:`~repro.monitor.minimize.minimize_monitor`, Mealy-extended);
* **alphabet pruning** — the ``2^|Sigma|`` width factor
  (:mod:`repro.optimize.prune`);
* **ladder hardening** — first-match dispatch and floor collapse for
  check ladders proven deterministic (:mod:`repro.optimize.ladders`).

``MonitorBank``/``MonitorNetwork``/``AssertionChecker`` expose the
pipeline via their ``optimize=`` knob, the CLI via ``--optimize``.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "OptimizationResult": "repro.optimize.pipeline",
    "as_optimized": "repro.optimize.pipeline",
    "harden_ladders": "repro.optimize.ladders",
    "optimize_compiled": "repro.optimize.pipeline",
    "optimize_monitor": "repro.optimize.pipeline",
    "prove_first_match": "repro.optimize.ladders",
    "prune_compiled": "repro.optimize.prune",
    "prune_monitor": "repro.optimize.prune",
    "used_symbols": "repro.optimize.prune",
    "used_symbols_compiled": "repro.optimize.prune",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
