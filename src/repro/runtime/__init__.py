"""Compiled monitor runtime: table-dispatch stepping and batch execution.

The interpreted :class:`~repro.monitor.engine.MonitorEngine` walks the
guard expression trees of every outgoing transition on every tick.
This package compiles a monitor once into integer-indexed dispatch
tables — the per-valuation enumeration the synthesis algorithm already
performs, made persistent — so the hot loop is a list lookup:

* :class:`~repro.runtime.compiled.CompiledMonitor` — the dense
  ``(state, valuation_mask) -> cell`` table over an
  :class:`~repro.logic.codec.AlphabetCodec` symbol ordering, with a
  compiled-guard check ladder in the cells whose move depends on the
  dynamic scoreboard;
* :func:`~repro.runtime.compiled.compile_monitor` — lower any
  :class:`~repro.monitor.automaton.Monitor` (dense ``Tr`` output,
  symbolic, or hand-built) to a :class:`CompiledMonitor`;
* :class:`~repro.monitor.engine.CompiledEngine` — same
  ``step``/``feed``/``result`` contract as ``MonitorEngine`` (including
  two-phase ``enabled_transition``/``commit``), on the compiled table;
* :func:`~repro.runtime.compiled.run_compiled` /
  :func:`~repro.runtime.compiled.run_many` — whole-trace and batched
  lock-step execution, reporting a ``MonitorResult``;
* :mod:`repro.runtime.lowering` — the table IR
  (:class:`~repro.runtime.lowering.VectorTable`): check-free cells
  lowered to one flat integer array, ladders to predicated rung terms;
* :mod:`repro.runtime.native` — that IR emitted as a C stepper,
  compiled on demand by the host ``cc``;
* :mod:`repro.runtime.engines` — the backend registry and the
  ``engine="auto"`` execution planner: every entry point resolves
  backend names and capability checks through it, and a new backend
  (e.g. a C table stepper) is one :func:`register_backend` call.

The interpreted engine remains the reference semantics; equivalence is
enforced by property tests (``tests/test_properties.py``) and the
differential suites under ``tests/runtime``.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "AUTO": "repro.runtime.engines",
    "CompiledEngine": "repro.monitor.engine",
    "CompiledMonitor": "repro.runtime.compiled",
    "EngineBackend": "repro.runtime.engines",
    "ExecutionPlan": "repro.runtime.engines",
    "Workload": "repro.runtime.engines",
    "engine_choices": "repro.runtime.engines",
    "plan_execution": "repro.runtime.engines",
    "register_backend": "repro.runtime.engines",
    "as_compiled": "repro.runtime.compiled",
    "compile_monitor": "repro.runtime.compiled",
    "run_compiled": "repro.runtime.compiled",
    "run_many": "repro.runtime.compiled",
    "run_many_encoded": "repro.runtime.compiled",
    "vector_table": "repro.runtime.lowering",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
