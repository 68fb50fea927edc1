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

from repro.optimize.ladders import harden_ladders, prove_first_match
from repro.optimize.pipeline import (
    OptimizationResult,
    as_optimized,
    optimize_compiled,
    optimize_monitor,
)
from repro.optimize.prune import (
    prune_compiled,
    prune_monitor,
    used_symbols,
    used_symbols_compiled,
)

__all__ = [
    "OptimizationResult",
    "as_optimized",
    "harden_ladders",
    "optimize_compiled",
    "optimize_monitor",
    "prove_first_match",
    "prune_compiled",
    "prune_monitor",
    "used_symbols",
    "used_symbols_compiled",
]
