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
* :class:`~repro.runtime.compiled.CompiledEngine` — same
  ``step``/``feed``/``result`` contract as ``MonitorEngine`` (including
  two-phase ``enabled_transition``/``commit``), on the compiled table;
* :func:`~repro.runtime.compiled.run_compiled` /
  :func:`~repro.runtime.compiled.run_many` — whole-trace and batched
  lock-step execution;
* :mod:`repro.runtime.vector` — the trace-parallel batch kernel:
  check-free cells lowered to one flat integer array stepped with
  NumPy fancy indexing, ladders resolved as predicated rung matrices
  (without NumPy, batches run the scalar ``run_many`` loop);
* :mod:`repro.runtime.native` — the same lowering emitted as a C
  stepper, compiled on demand by the host ``cc``;
* :mod:`repro.runtime.engines` — the backend registry and the
  ``engine="auto"`` execution planner: every entry point resolves
  backend names and capability checks through it, and a new backend
  (e.g. a C table stepper) is one :func:`register_backend` call.

The interpreted engine remains the reference semantics; equivalence is
enforced by property tests (``tests/test_properties.py``) and the
vector differential suite.
"""

from repro.runtime.compiled import (
    CompiledEngine,
    CompiledMonitor,
    as_compiled,
    compile_monitor,
    run_compiled,
    run_many,
    run_many_encoded,
)
from repro.runtime.engines import (
    AUTO,
    EngineBackend,
    ExecutionPlan,
    Workload,
    engine_choices,
    plan_execution,
    register_backend,
)

#: Vector-kernel names resolved lazily (PEP 562): importing the vector
#: module pulls in NumPy when present, and scalar-only users — the CLI
#: with --engine compiled, sharded worker spawns — should not pay that
#: import for a kernel they never touch.
_VECTOR_EXPORTS = (
    "VectorEngine",
    "run_many_vector",
    "run_many_vector_encoded",
    "vector_table",
)


def __getattr__(name):
    if name in _VECTOR_EXPORTS:
        from repro.runtime import vector

        return getattr(vector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AUTO",
    "CompiledEngine",
    "CompiledMonitor",
    "EngineBackend",
    "ExecutionPlan",
    "VectorEngine",
    "Workload",
    "engine_choices",
    "plan_execution",
    "register_backend",
    "as_compiled",
    "compile_monitor",
    "run_compiled",
    "run_many",
    "run_many_encoded",
    "run_many_vector",
    "run_many_vector_encoded",
    "vector_table",
]
