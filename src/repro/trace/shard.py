"""Checking many VCD dumps, in this process.

:func:`run_sharded_vcd` reads each dump through the VCD front-end in
bounded blocks into one mask array and checks it in the planned batch
kernel (:func:`check_masks`, reporting a :class:`StreamReport`); the
interpreted engine streams decoded valuations instead.  With a corpus
cache it resolves dumps through
:func:`~repro.trace.columnar.check_vcd_cached`.  The streaming checker
and the corpus store load only when a check needs them.

Every batch, dump, campaign and corpus check runs in the calling
process: with the native stepper a worker pool won no measured
workload (DESIGN.md §5.1).  The module keeps its name, and
``run_sharded_vcd`` its name, because ``perfbench/traced.py`` swaps
that function by attribute here; ``resolve_jobs``,
``available_cores`` and ``shutdown_worker_pools`` remain only
because ``perfbench/traced.py`` calls them.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import MonitorError, TraceError
from repro.monitor.automaton import Monitor
from repro.runtime.compiled import CompiledMonitor, as_compiled
from repro.runtime.engines import AUTO, backend, require_backend

__all__ = ["StreamReport", "check_masks", "run_sharded_vcd"]


class StreamReport:
    """Summary of an online checking run.

    ``detections`` / ``violations`` hold at most the first
    ``max_recorded`` entries (a violation is the obligation-opening
    tick paired with the tick it failed at); ``n_detections`` /
    ``n_violations`` are exact totals.
    """

    __slots__ = ("name", "ticks", "detections", "n_detections",
                 "violations", "n_violations", "n_passes", "n_pending",
                 "stopped_early")

    def __init__(self, name: str, ticks: int, detections: List[int],
                 n_detections: int,
                 violations: List[Tuple[int, int]], n_violations: int,
                 n_passes: int, n_pending: int, stopped_early: bool):
        self.name = name
        self.ticks = ticks
        self.detections = detections
        self.n_detections = n_detections
        self.violations = violations
        self.n_violations = n_violations
        self.n_passes = n_passes
        self.n_pending = n_pending
        self.stopped_early = stopped_early

    @property
    def accepted(self) -> bool:
        """Did the (antecedent) scenario occur at least once?"""
        return self.n_detections > 0

    @property
    def ok(self) -> bool:
        """No violation observed (pending obligations don't count)."""
        return self.n_violations == 0

    def __repr__(self):
        return (
            f"StreamReport({self.name!r}, ticks={self.ticks}, "
            f"detections={self.n_detections}, "
            f"violations={self.n_violations}, "
            f"stopped_early={self.stopped_early})"
        )


def check_masks(monitor, masks, engine: str = "auto",
                max_recorded: int = 10_000):
    """Check one dump's mask stream in the planned batch kernel.

    The last step of every table-engine ``check --vcd``, cached or
    not: the planner sees one lane of ``len(masks)`` ticks (the native
    stepper when a C compiler is present, else the compiled loop), and
    the result comes back as a :class:`StreamReport` holding the first
    ``max_recorded`` detections.
    """
    from repro.runtime.engines import Workload, plan_execution

    plan = plan_execution(monitor, Workload(1, len(masks)), engine,
                          capability="batch", error_cls=TraceError)
    detections = plan.encoded_runner()(monitor, [masks])[0].detections
    return StreamReport(
        monitor.name,
        ticks=len(masks),
        detections=list(detections[:max_recorded]),
        n_detections=len(detections),
        violations=[],
        n_violations=0,
        n_passes=0,
        n_pending=0,
        stopped_early=False,
    )


def available_cores() -> int:
    """Cores this process may run on: the scheduler affinity set where
    the platform exposes it, else ``os.cpu_count()``.

    Kept for ``perfbench/traced.py`` (through :func:`resolve_jobs`).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = len(getaffinity(0))
        except OSError:
            affinity = 0
        if affinity > 0:
            return affinity
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs``-style request: ``None`` or ``0`` is one
    per available core, a request beyond them is clamped, a negative
    one is refused.

    Kept for ``perfbench/traced.py``, which names a parse span by it;
    nothing in the package runs more than one process.
    """
    cores = available_cores()
    if jobs is None or jobs == 0:
        return cores
    if jobs < 0:
        raise MonitorError(f"jobs must be >= 0 (got {jobs})")
    return min(jobs, cores)


def shutdown_worker_pools() -> None:
    """Does nothing: there are no worker pools.  Kept for
    ``perfbench/traced.py``, which calls it when a run ends."""


def run_sharded_vcd(
    monitor: Union[Monitor, CompiledMonitor],
    paths: Sequence[str],
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    binding=None,
    engine: str = AUTO,
    cache=None,
) -> list:
    """Check VCD dumps; one :class:`StreamReport` per path, in input
    order.

    Each dump streams through the VCD front-end in bounded blocks into
    one mask array, held whole (a check peaks at about 28 bytes a
    tick, measured 2026-10-19), which the planned batch kernel checks
    — see :func:`check_masks`;
    the interpreted engine instead streams decoded valuations through
    ``monitor`` as given (a compiled monitor through its source).
    ``clock``/``period``/``offset``/``until``/``binding`` are the
    :meth:`~repro.trace.vcd_reader.VcdReader.masks` sampling
    parameters, applied to every dump.

    ``cache`` (a :class:`~repro.cache.CorpusCache` or its root
    directory) switches to the columnar corpus path: dumps are resolved
    through :func:`~repro.trace.columnar.ingest_vcd` — warm entries
    skip parsing entirely; misses parse and populate the cache.
    Verdicts are identical either way.
    """
    from repro.trace.vcd_reader import VcdReader

    paths = [os.fspath(path) for path in paths]
    if cache is not None:
        from repro.trace.columnar import check_vcd_cached

        return check_vcd_cached(
            monitor, paths, cache, clock=clock, period=period,
            offset=offset, until=until, binding=binding, engine=engine,
        )
    # Table engines check masks in batch; an engine without batch
    # execution (interpreted) streams valuations through the monitor
    # as given, so a plain Monitor is never compiled for it.
    streams = engine != AUTO and not backend(engine).batch
    if engine != AUTO:
        require_backend(engine, "streaming" if streams else "batch")
    compiled = None if streams else as_compiled(monitor)
    sampling = dict(clock=clock, period=period, offset=offset, until=until)
    reports = []
    for path in paths:
        with VcdReader(path, binding=binding) as reader:
            if streams:
                from repro.trace.streaming import StreamingChecker

                reports.append(StreamingChecker(monitor, engine=engine)
                               .feed(reader.valuations(**sampling)))
                continue
            masks = reader.masks(compiled.codec, **sampling)
        reports.append(check_masks(compiled, masks, engine))
    return reports
