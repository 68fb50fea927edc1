"""The engine registry and the auto-selecting execution planner.

Every execution path in the package — per-tick stepping, in-process
batches, streaming, sharded worker pools, the serving layer, cached
corpus checks — dispatches on a *backend name* (``"interpreted"``,
``"compiled"``, ``"vector"``, ``"native"``).  This module is the
single seam those names pass through:

* :class:`EngineBackend` — one backend's descriptor: capability flags
  (can it batch?  stream?  run as a sharded worker kernel?  honour the
  two-phase network contract?  consume optimization-pipeline
  artifacts?) plus lazy runner hooks mirroring the concrete entry
  points (``make_engine`` for per-tick stepping engines,
  ``batch_runner``/``encoded_runner`` for the ``run_many`` family);
* a process-wide **registry** (:func:`register_backend`,
  :func:`backend`, :func:`backend_names`) that every entry point
  validates against, so "unknown engine" and "capability missing"
  errors carry identical wording and the live choice list everywhere;
* :func:`plan_execution` — the planner that resolves
  ``engine="auto"``: the native stepper whenever it can be built,
  else the vector kernel for wide batches over predicable tables
  (:attr:`~repro.runtime.vector.VectorTable.residual_ratio`) under
  NumPy, else the scalar compiled loop.

Registering a new backend is one :func:`register_backend` call: the
CLI choice lists, the validation errors, the streaming checker, the
sharded worker kernels and the serve layer all read the registry, so
no entry point needs to change.  The ``native`` backend (the C
table-stepper emitted by :mod:`repro.codegen.c_gen`, compiled on
demand by :mod:`repro.runtime.native`) is exactly that call: it adds
an ``availability`` hook so a missing host compiler (or
``REPRO_NO_CC=1``) keeps it out of the planner and turns explicit
selection into a uniform "is unavailable" error.  See DESIGN.md for
the registration contract.

Backend *names* are data here and nowhere else: a lint gate
(``tools/lint_engine_dispatch.py``, run by the test suite and CI)
fails the build when a raw ``engine == "..."`` string compare appears
outside this module.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import MonitorError

__all__ = [
    "AUTO",
    "EngineBackend",
    "ExecutionPlan",
    "Workload",
    "backend",
    "backend_names",
    "engine_choices",
    "engines_markdown_table",
    "numpy_ready",
    "plan_execution",
    "plan_streaming",
    "register_backend",
    "require_backend",
    "resolve_step_backend",
    "unknown_engine",
]

#: The planner sentinel: entry points accepting it resolve the real
#: backend through :func:`plan_execution` / :func:`plan_streaming`.
AUTO = "auto"

#: Without a native stepper, the lane count at which the vector
#: kernel's per-tick array-op overhead is amortized (measured between
#: 32 and 256 lanes on ladder-heavy charts): narrower batches run the
#: scalar compiled loop.
VECTOR_WIDE_WIDTH = 64

#: Tables whose post-predication residual exceeds this fraction stay
#: on the scalar loop at any width — residual lanes leave the vector
#: kernel for per-lane scalar resolution, the worst of both worlds.
RESIDUAL_CUTOFF = 0.10

#: Capability flag -> how the missing feature reads in an error.
_CAPABILITY_FEATURES = {
    "step": "per-tick stepping",
    "batch": "batch execution",
    "streaming": "streaming checks",
    "chunked": "chunked mask pushes",
    "sharded_worker": "sharded execution",
    "two_phase": "two-phase network stepping",
    "optimize_ok": "optimized monitors",
}


class EngineBackend:
    """One stepping backend: capability flags + lazy runner hooks.

    ``steps`` and ``when`` are the human-readable descriptor strings
    the README engines table is generated from
    (:func:`engines_markdown_table`); the boolean flags are the
    capability matrix every entry point validates against; the three
    hook factories return the concrete callables on demand so that
    registering a backend never imports its kernel (the vector hooks
    pull in NumPy only when a vector run actually starts).
    """

    __slots__ = (
        "name", "steps", "when", "wants_compiled", "step", "batch",
        "streaming", "chunked", "sharded_worker", "two_phase",
        "optimize_ok", "prefers_numpy", "_engine_factory",
        "_batch_factory", "_encoded_factory", "_availability",
    )

    def __init__(
        self,
        name: str,
        steps: str,
        when: str,
        *,
        wants_compiled: bool,
        step: bool = True,
        batch: bool = False,
        streaming: bool = False,
        chunked: bool = False,
        sharded_worker: bool = False,
        two_phase: bool = False,
        optimize_ok: bool = False,
        prefers_numpy: bool = False,
        engine_factory: Optional[Callable] = None,
        batch_factory: Optional[Callable] = None,
        encoded_factory: Optional[Callable] = None,
        availability: Optional[Callable] = None,
    ):
        self.name = name
        self.steps = steps
        self.when = when
        self.wants_compiled = wants_compiled
        self.step = step
        self.batch = batch
        self.streaming = streaming
        self.chunked = chunked
        self.sharded_worker = sharded_worker
        self.two_phase = two_phase
        self.optimize_ok = optimize_ok
        self.prefers_numpy = prefers_numpy
        self._engine_factory = engine_factory
        self._batch_factory = batch_factory
        self._encoded_factory = encoded_factory
        self._availability = availability

    # -- runner hooks ----------------------------------------------------
    def make_engine(self, monitor, scoreboard=None, record_history=True):
        """A per-tick stepping engine over ``monitor``.

        ``monitor`` must be in the backend's preferred form: the
        compiled table for ``wants_compiled`` backends, the interpreted
        automaton otherwise (see :attr:`wants_compiled`).
        """
        if self._engine_factory is None:
            raise MonitorError(
                f"engine {self.name!r} does not expose a per-tick "
                "stepping engine"
            )
        return self._engine_factory()(
            monitor, scoreboard=scoreboard, record_history=record_history
        )

    def batch_runner(self):
        """The ``run_many``-style callable: ``(monitor, traces, ...)``."""
        if self._batch_factory is None:
            raise MonitorError(
                f"engine {self.name!r} does not support batch execution"
            )
        return self._batch_factory()

    def encoded_runner(self):
        """The pre-encoded twin: ``(monitor, mask_arrays, ...)``."""
        if self._encoded_factory is None:
            raise MonitorError(
                f"engine {self.name!r} does not support batch execution"
            )
        return self._encoded_factory()

    def unavailable_reason(self) -> Optional[str]:
        """Why this backend cannot run here, or ``None`` when it can.

        Backends with an optional host dependency (the native
        table-stepper needs a C compiler) register an ``availability``
        hook; backends without one are always available.  The planner
        never selects an unavailable backend, and
        :func:`require_backend` turns the reason into the uniform
        "engine ... is unavailable" error on explicit selection.
        """
        if self._availability is None:
            return None
        return self._availability()

    def buffer_masks(self) -> bool:
        """Should encoded input be buffer-backed arrays (vs lists)?

        The NumPy vector kernel gathers fastest over buffer-backed
        arrays; every scalar loop (which is what ``vector`` runs
        without NumPy) indexes plain lists fastest.
        """
        return self.prefers_numpy and numpy_ready()

    def __repr__(self):
        flags = ", ".join(
            flag for flag in ("step", "batch", "streaming", "chunked",
                              "sharded_worker", "two_phase", "optimize_ok")
            if getattr(self, flag)
        )
        return f"EngineBackend({self.name!r}, {flags})"


# -- the registry -----------------------------------------------------------
_REGISTRY: Dict[str, EngineBackend] = {}


def register_backend(backend_: EngineBackend, replace: bool = False) -> EngineBackend:
    """Add a backend to the process-wide registry.

    Registration order is presentation order (CLI choice lists, the
    README table).  Re-registering a name is an error unless
    ``replace=True`` — the hook for swapping in an accelerated
    implementation under an existing name.
    """
    if backend_.name == AUTO:
        raise MonitorError(
            f"{AUTO!r} is the planner sentinel, not a registrable backend"
        )
    if backend_.name in _REGISTRY and not replace:
        raise MonitorError(
            f"engine {backend_.name!r} is already registered "
            "(pass replace=True to swap implementations)"
        )
    _REGISTRY[backend_.name] = backend_
    return backend_


def backend(name: str) -> EngineBackend:
    """The registered backend for ``name`` (uniform error if unknown)."""
    found = _REGISTRY.get(name)
    if found is None:
        raise unknown_engine(name)
    return found


def backend_names(capability: Optional[str] = None) -> Tuple[str, ...]:
    """Registered names, optionally filtered to one capability flag."""
    if capability is None:
        return tuple(_REGISTRY)
    return tuple(
        name for name, entry in _REGISTRY.items()
        if getattr(entry, capability)
    )


def engine_choices(capability: Optional[str] = None,
                   auto: bool = True) -> Tuple[str, ...]:
    """The valid ``--engine`` spellings for one entry point."""
    names = backend_names(capability)
    return ((AUTO,) + names) if auto else names


def unknown_engine(name, capability: Optional[str] = None,
                   error_cls=MonitorError, auto: bool = True):
    """The one "unknown engine" error every entry point raises."""
    choices = ", ".join(engine_choices(capability, auto=auto))
    return error_cls(f"unknown engine {name!r} (choose from: {choices})")


def require_backend(name: str, capability: Optional[str] = None,
                    error_cls=MonitorError,
                    auto: bool = True) -> EngineBackend:
    """Resolve ``name`` and check one capability flag.

    Raises ``error_cls`` with the registry's uniform wording when the
    name is unregistered, or when it is registered but lacks the
    capability — the choice list in either message names exactly the
    engines valid at the calling entry point (``auto=False`` for the
    few seams that need a concrete backend).
    """
    found = _REGISTRY.get(name)
    if found is None:
        raise unknown_engine(name, capability, error_cls, auto=auto)
    if capability is not None and not getattr(found, capability):
        feature = _CAPABILITY_FEATURES.get(capability, capability)
        choices = ", ".join(engine_choices(capability, auto=auto))
        raise error_cls(
            f"engine {name!r} does not support {feature} "
            f"(choose from: {choices})"
        )
    reason = found.unavailable_reason()
    if reason is not None:
        choices = ", ".join(engine_choices(capability, auto=auto))
        raise error_cls(
            f"engine {name!r} is unavailable: {reason} "
            f"(choose from: {choices})"
        )
    return found


# -- workload features ------------------------------------------------------
def numpy_ready() -> bool:
    """Is the NumPy vector kernel live in this process?

    Follows the vector module's own switch when it is already loaded
    (tests monkeypatch it to force fallback mode); otherwise answers
    from the environment without importing NumPy.
    """
    vector = sys.modules.get("repro.runtime.vector")
    if vector is not None:
        return vector._np is not None
    if os.environ.get("REPRO_NO_NUMPY"):
        return False
    try:
        import importlib.util

        return importlib.util.find_spec("numpy") is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic paths
        return False


class Workload:
    """The measurable shape of one batch: lane count and total ticks."""

    __slots__ = ("n_traces", "total_ticks")

    def __init__(self, n_traces: int = 0, total_ticks: int = 0):
        self.n_traces = n_traces
        self.total_ticks = total_ticks

    @classmethod
    def from_traces(cls, traces: Sequence) -> "Workload":
        """Features of a trace (or mask-array) batch."""
        return cls(len(traces), sum(len(trace) for trace in traces))

    @classmethod
    def from_lengths(cls, lengths: Sequence[int]) -> "Workload":
        return cls(len(lengths), sum(lengths))

    def __repr__(self):
        return (f"Workload(n_traces={self.n_traces}, "
                f"total_ticks={self.total_ticks})")


class ExecutionPlan:
    """One resolved dispatch decision: the backend plus its rationale."""

    __slots__ = ("engine", "backend", "reason", "workload")

    def __init__(self, backend_: EngineBackend, reason: str,
                 workload: Optional[Workload] = None):
        self.engine = backend_.name
        self.backend = backend_
        self.reason = reason
        self.workload = workload

    def batch_runner(self):
        return self.backend.batch_runner()

    def encoded_runner(self):
        return self.backend.encoded_runner()

    def __repr__(self):
        return f"ExecutionPlan({self.engine!r}: {self.reason})"


# -- the planner ------------------------------------------------------------
def _native_ready(monitor) -> bool:
    """Can the native table-stepper run ``monitor`` here?

    True only when the backend is registered, a C compiler is present
    (and not vetoed by ``REPRO_NO_CC``), and the monitor's lowered
    table fits the C emitter's constraints.  Consults the memoized
    lowering only — no compilation happens at planning time.
    """
    entry = _REGISTRY.get("native")
    if entry is None or monitor is None:
        return False
    if entry.unavailable_reason() is not None:
        return False
    from repro.runtime.compiled import as_compiled
    from repro.runtime.native import native_plan_ok
    from repro.runtime.vector import vector_table

    return native_plan_ok(vector_table(as_compiled(monitor)))


def plan_execution(monitor, workload: Optional[Workload] = None,
                   engine: str = AUTO, capability: str = "batch",
                   error_cls=MonitorError) -> ExecutionPlan:
    """Resolve an engine request against a monitor and a workload.

    An explicit name validates against ``capability`` and is honoured
    verbatim.  ``"auto"`` applies three rules, in order:

    1. **native** when it is buildable: a C compiler is present (and
       not vetoed by ``REPRO_NO_CC``) and the table lowers to C — the
       stepper leads every other kernel at every measured width;
    2. otherwise **vector** when NumPy is live, the batch has at least
       :data:`VECTOR_WIDE_WIDTH` lanes and the lowered table is
       predicable (residual at most :data:`RESIDUAL_CUTOFF`);
    3. otherwise **compiled**.

    The lowering both rules consult is memoized
    (:func:`~repro.runtime.vector.vector_table`), so planning a batch
    against a warm monitor costs a few attribute reads and compiles
    nothing.  An unavailable native backend is never planned, while
    explicit ``engine="native"`` raises the uniform "is unavailable"
    error from :func:`require_backend`.
    """
    if engine != AUTO:
        chosen = require_backend(engine, capability, error_cls=error_cls)
        return ExecutionPlan(chosen, "explicitly requested", workload)
    if workload is None:
        workload = Workload()
    if _native_ready(monitor):
        return ExecutionPlan(
            backend("native"),
            "auto: a C compiler is present and the table lowers to C",
            workload,
        )
    if not numpy_ready():
        reason = "no native stepper and no NumPy"
    elif workload.n_traces < VECTOR_WIDE_WIDTH:
        reason = (f"no native stepper; a {workload.n_traces}-lane batch "
                  "is too narrow for the vector kernel")
    else:
        from repro.runtime.compiled import as_compiled
        from repro.runtime.vector import vector_table

        table = vector_table(as_compiled(monitor))
        if table.vectorizable and table.residual_ratio <= RESIDUAL_CUTOFF:
            return ExecutionPlan(
                backend("vector"),
                f"auto: {workload.n_traces}-lane batch over a predicable "
                "table",
                workload,
            )
        reason = (f"no native stepper; {table.residual_ratio:.0%} of "
                  "cells resolve escapes on the scalar path")
    return ExecutionPlan(backend("compiled"), f"auto: {reason}", workload)


def plan_streaming(engine: str = AUTO, implication: bool = False,
                   error_cls=MonitorError) -> str:
    """Resolve an engine request for online (per-stream) checking.

    Implication specs interleave obligations with detections tick by
    tick, so ``"auto"`` resolves them to the compiled scalar engine;
    detector streams take the chunked vector path when NumPy is live.
    An explicit name validates against the ``streaming`` capability.
    """
    if engine != AUTO:
        return require_backend(engine, "streaming",
                               error_cls=error_cls).name
    if implication or not numpy_ready():
        return "compiled"
    return "vector"


def resolve_step_backend(engine: str, capability: str = "step",
                         error_cls=MonitorError) -> EngineBackend:
    """Resolve an engine request for per-tick stepping contexts.

    ``"auto"`` always means the compiled table here — per-tick
    stepping has no batch width for the vector kernel to amortize
    over, and the interpreted walker is the explicit-opt-in reference.
    """
    if engine == AUTO:
        return require_backend("compiled", capability,
                               error_cls=error_cls)
    return require_backend(engine, capability, error_cls=error_cls)


# -- documentation ----------------------------------------------------------
def engines_markdown_table() -> str:
    """The README engines table, generated from the live registry.

    ``tests/runtime/test_engine_matrix.py`` asserts the README block
    between the ``engines-table`` markers equals this output, so the
    documentation cannot drift from the registered backends.
    """
    lines = ["| engine | what steps | when to use |", "|---|---|---|"]
    for entry in _REGISTRY.values():
        lines.append(f"| `{entry.name}` | {entry.steps} | {entry.when} |")
    lines.append(
        "| `auto` | the planner's pick of the above | the default for "
        "every CLI entry point: `native` whenever a host C compiler "
        "can build it, else `vector` for batches of "
        f"{VECTOR_WIDE_WIDTH}+ lanes under NumPy, else `compiled` |"
    )
    return "\n".join(lines) + "\n"


# -- the built-in backends --------------------------------------------------
def _interpreted_engine_factory():
    from repro.monitor.engine import MonitorEngine

    return MonitorEngine


def _compiled_engine_factory():
    from repro.runtime.compiled import CompiledEngine

    return CompiledEngine


def _vector_engine_factory():
    from repro.runtime.vector import VectorEngine

    return VectorEngine


def _compiled_batch_factory():
    from repro.runtime.compiled import run_many

    return run_many


def _compiled_encoded_factory():
    from repro.runtime.compiled import run_many_encoded

    return run_many_encoded


def _vector_batch_factory():
    from repro.runtime.vector import run_many_vector

    return run_many_vector


def _vector_encoded_factory():
    from repro.runtime.vector import run_many_vector_encoded

    return run_many_vector_encoded


def _native_batch_factory():
    from repro.runtime.native import run_many_native

    return run_many_native


def _native_encoded_factory():
    from repro.runtime.native import run_many_native_encoded

    return run_many_native_encoded


def _native_availability():
    from repro.runtime.native import unavailable_reason

    return unavailable_reason()


register_backend(EngineBackend(
    "interpreted",
    steps="guard expression trees, as written",
    when="the reference semantics: chart development, guard debugging",
    wants_compiled=False,
    step=True,
    streaming=True,
    two_phase=True,
    engine_factory=_interpreted_engine_factory,
))

register_backend(EngineBackend(
    "compiled",
    steps="dense `(state, mask)` table, one trace per engine",
    when="streaming/online checking, and every batch when neither a "
         "C compiler nor a wide batch under NumPy is at hand: 5–50x "
         "over interpreted",
    wants_compiled=True,
    step=True,
    batch=True,
    streaming=True,
    sharded_worker=True,
    two_phase=True,
    optimize_ok=True,
    engine_factory=_compiled_engine_factory,
    batch_factory=_compiled_batch_factory,
    encoded_factory=_compiled_encoded_factory,
))

register_backend(EngineBackend(
    "vector",
    steps="flat integer array, whole batch per gather; ladders as "
          "predicated rung matrices",
    when="wide batches (64+ lanes) under NumPy when no C compiler is "
         "present: ~3x over `compiled` lock-step at 256 lanes in "
         "`bench_vector.py` even at 65–75% ladder density, identical "
         "verdicts and errors",
    wants_compiled=True,
    step=False,
    batch=True,
    streaming=True,
    chunked=True,
    sharded_worker=True,
    optimize_ok=True,
    prefers_numpy=True,
    engine_factory=_vector_engine_factory,
    batch_factory=_vector_batch_factory,
    encoded_factory=_vector_encoded_factory,
))

register_backend(EngineBackend(
    "native",
    steps="compile-on-demand C table-stepper (same flat table and "
          "predicated rungs), one shared object per monitor",
    when="every batch width when a host C compiler is present: "
         "~2–4x over `compiled` and ~2–7x over `vector` from 1 to 256 "
         "lanes, anomalies replay through the scalar engine for "
         "identical errors",
    wants_compiled=True,
    step=False,
    batch=True,
    sharded_worker=True,
    optimize_ok=True,
    batch_factory=_native_batch_factory,
    encoded_factory=_native_encoded_factory,
    availability=_native_availability,
))
