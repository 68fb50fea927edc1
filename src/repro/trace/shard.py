"""Sharded parallel checking: compiled tables fanned out across cores.

:func:`~repro.runtime.compiled.run_many` steps many traces in
lock-step inside one process; for large workloads the scaling lever is
processes, not ticks-per-loop.  :func:`run_sharded` partitions the
trace list into contiguous, tick-balanced chunks and runs each chunk
through ``run_many`` in a worker process; :func:`run_bank_sharded`
does the same for every member of a
:class:`~repro.synthesis.compose.MonitorBank` (member x chunk work
units, so even a single huge trace list parallelises across members).

Worker processes are *reused*: the first sharded call spins up a
persistent pool (one per multiprocessing start method) and later calls
— a campaign loop issues hundreds — pay no spawn cost.  Monitors
travel inside tasks as pickled payloads cached worker-side by digest,
so a pool serves any number of different monitors and each worker
unpickles a given monitor once.  This is why
:class:`~repro.runtime.compiled.CompiledMonitor` (and everything it
references, down to guard expressions) pickles cleanly.  Results come
back as ordinary :class:`~repro.monitor.engine.MonitorResult` lists in
input order, indistinguishable from a single-process run.

Traces are encoded to mask arrays once, in the parent, and each task
carries its chunk's arrays pickled; workers never re-encode.

Worker counts are capped at the *available* core count by default —
the scheduler affinity set where the platform exposes it, so
cgroup/container-limited runs do not oversubscribe: a CPU-bound
lock-step loop gains nothing from oversubscription, it only pays
extra process and pickling overhead (the pre-cap benchmark showed
``jobs=4`` running 3x *slower* than single-process on a single-core
container).  Pass ``oversubscribe=True`` to force more workers than
cores — tests of cross-process behaviour on small machines need that.

Scoreboards: each trace gets a fresh scoreboard in its worker.
Injected ``scoreboards`` are consumed as *initial* states; unlike
``run_many``, mutations made by workers do not propagate back to the
caller's objects.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import MonitorError
from repro.monitor.automaton import Monitor
from repro.monitor.engine import MonitorResult
from repro.monitor.scoreboard import Scoreboard
from repro.runtime.compiled import (
    CompiledMonitor,
    as_compiled,
)
from repro.runtime.engines import (
    AUTO,
    Workload,
    backend,
    plan_execution,
    require_backend,
)
from repro.semantics.run import Trace

__all__ = ["run_sharded", "run_sharded_encoded", "run_bank_sharded",
           "run_sharded_vcd", "available_cores", "resolve_jobs",
           "shutdown_worker_pools"]


def available_cores() -> int:
    """Cores this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup cpuset or ``taskset`` affinity mask (containers, CI
    runners) it overstates the budget and a "one worker per core"
    pool oversubscribes the cores we really have.  The scheduler
    affinity set is the truth where the platform exposes it.
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


def resolve_jobs(jobs: Optional[int], oversubscribe: bool = False) -> int:
    """Normalise a ``--jobs``-style request to a worker count.

    ``None`` or ``0`` means "one worker per available core" (the
    affinity set, not the raw machine core count — see
    :func:`available_cores`); negative values are rejected.  Requests
    beyond the available cores are clamped — more CPU-bound workers
    than cores is pure overhead — unless ``oversubscribe`` explicitly
    asks for them.
    """
    cores = available_cores()
    if jobs is None or jobs == 0:
        return cores
    if jobs < 0:
        raise MonitorError(f"jobs must be >= 0 (got {jobs})")
    if not oversubscribe:
        return min(jobs, cores)
    return jobs


# -- persistent worker pools -----------------------------------------------
#: One long-lived pool per start method: (pool, worker_count).  Reused
#: across calls so campaign loops pay the spawn cost once.  A call
#: asking for a *different* worker count retires the cached pool
#: (terminate + join, so its processes are reaped, not stranded) and
#: spins up an exact-size replacement — before this policy an
#: oversubscribed test call could leave a 32-process pool idling for
#: the rest of the interpreter's life.
_POOLS: Dict[str, Tuple[object, int]] = {}
_POOLS_LOCK = threading.RLock()


def _retire_pool(pool) -> None:
    pool.terminate()
    pool.join()


def _get_pool(method: Optional[str], workers: int):
    # Imported here: only a pool needs it, and in-process runs (every
    # one-job check) should not pay for it.
    import multiprocessing

    context = multiprocessing.get_context(method)
    key = context.get_start_method()
    with _POOLS_LOCK:
        cached = _POOLS.get(key)
        if cached is not None:
            pool, size = cached
            if size == workers:
                return pool
            del _POOLS[key]
            _retire_pool(pool)
        pool = context.Pool(processes=workers)
        _POOLS[key] = (pool, workers)
        return pool


def shutdown_worker_pools() -> None:
    """Terminate every cached worker pool (tests; interpreter exit).

    Idempotent and safe under concurrent callers: the registry is
    atomically drained under the lock, so two racing shutdowns (or a
    shutdown racing ``_get_pool``) each operate on disjoint pools and
    a second call finds nothing left to do.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool, _ in pools:
        _retire_pool(pool)


atexit.register(shutdown_worker_pools)


#: Worker-side LRU cache of shipped monitors, keyed by payload digest
#: so a reused pool serves many monitors and unpickles each at most
#: once per worker.  Sized above any realistic bank so member-major
#: task streams (run_bank_sharded cycles through every member) do not
#: thrash it back to one unpickle per task.
_MONITOR_CACHE: Dict[bytes, object] = {}
_MONITOR_CACHE_LIMIT = 64


def _cached_monitor(digest: bytes, payload: bytes):
    monitor = _MONITOR_CACHE.get(digest)
    if monitor is None:
        monitor = pickle.loads(payload)
        while len(_MONITOR_CACHE) >= _MONITOR_CACHE_LIMIT:
            _MONITOR_CACHE.pop(next(iter(_MONITOR_CACHE)))
    else:
        # Refresh recency (dicts iterate in insertion order, so the
        # first key is always the least recently used).
        del _MONITOR_CACHE[digest]
    _MONITOR_CACHE[digest] = monitor
    return monitor


def _ship(compiled: CompiledMonitor) -> Tuple[bytes, bytes]:
    """(digest, payload) for one monitor, source stripped.

    Workers never read the interpreted source automaton; stripping it
    roughly halves the payload.
    """
    payload = pickle.dumps(compiled.without_source())
    return hashlib.sha1(payload).digest(), payload


def _run_chunk(task) -> List[MonitorResult]:
    digest, payload, masks, scoreboards, record_transitions, engine = task
    # Tasks carry a concrete registered backend name (the parent planned
    # any "auto" before fanning out), so workers resolve it the same way
    # every in-process entry point does.
    runner = require_backend(engine, "sharded_worker").encoded_runner()
    return runner(_cached_monitor(digest, payload), masks, scoreboards,
                  record_transitions=record_transitions)


def _chunk_bounds(lengths: Sequence[int], n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` slices with near-equal total ticks.

    Contiguity keeps results trivially reorderable; balancing by tick
    count (not trace count) stops one chunk of long traces from
    serialising the whole pool.
    """
    total = sum(lengths)
    bounds: List[Tuple[int, int]] = []
    start = 0
    consumed = 0
    for chunk in range(n_chunks):
        target = (total * (chunk + 1)) // n_chunks
        end = start
        # Take the next trace only while it still fits under the
        # cumulative target (a chunk is never left empty).  Stopping
        # *before* an overshooting long trace keeps it for the next
        # chunk — greedily swallowing it would glue a tail-heavy
        # workload into one chunk and serialise the pool.
        while end < len(lengths) and (
            end == start or consumed + lengths[end] <= target
        ):
            consumed += lengths[end]
            end += 1
        # Never strand the tail: the last chunk takes whatever is left.
        if chunk == n_chunks - 1:
            end = len(lengths)
        if end > start:
            bounds.append((start, end))
        start = end
    return bounds


def run_sharded(
    monitor: Union[Monitor, CompiledMonitor],
    traces: Sequence[Trace],
    jobs: Optional[int] = None,
    scoreboards: Optional[Sequence[Scoreboard]] = None,
    mp_context: Optional[str] = None,
    record_transitions: bool = False,
    oversubscribe: bool = False,
    engine: str = AUTO,
) -> List[MonitorResult]:
    """Run one monitor over many traces across worker processes.

    Drop-in for :func:`~repro.runtime.compiled.run_many` (identical
    results, in input order).  ``jobs=None`` uses every core; with one
    worker (or at most one trace) no pool is used at all.
    ``mp_context`` selects the multiprocessing start method
    (``"fork"``/``"spawn"``; default: the platform's default).
    ``record_transitions`` reports the transitions each trace took
    (coverage folding); transition objects round-trip pickling with
    structural equality, so they fold into collectors tracking the
    caller's monitor.  ``engine`` selects the worker-side batch kernel
    from the registry (``"auto"``, the default, lets
    :func:`~repro.runtime.engines.plan_execution` pick per chunk shape;
    explicit names are honoured verbatim, identical results either
    way).

    Traces are encoded to valuation-mask arrays *once, in the parent*
    (through the shared codec cache) and each task ships its chunk's
    arrays pickled — a fraction of the cost of shipping ``Trace``
    objects, and workers never re-encode.
    """
    compiled = as_compiled(monitor)
    plan = plan_execution(compiled, Workload.from_traces(traces),
                          engine, capability="sharded_worker")
    if scoreboards is not None and len(scoreboards) != len(traces):
        raise MonitorError(
            "run_sharded needs exactly one scoreboard per trace when provided"
        )
    jobs = resolve_jobs(jobs, oversubscribe=oversubscribe)
    if jobs <= 1 or len(traces) <= 1:
        # Keep the documented isolation contract on the in-process
        # fallback too: workers mutate pickled copies, so this path
        # must not mutate the caller's scoreboards either.
        if scoreboards is not None:
            scoreboards = pickle.loads(pickle.dumps(list(scoreboards)))
        return plan.batch_runner()(compiled, traces, scoreboards,
                                   record_transitions=record_transitions)
    masks = compiled.codec.encode_many(traces)
    return _fan_out_encoded(compiled, masks, plan.engine, jobs,
                            scoreboards, mp_context, record_transitions)


def run_sharded_encoded(
    monitor: Union[Monitor, CompiledMonitor],
    mask_arrays: Sequence,
    jobs: Optional[int] = None,
    scoreboards: Optional[Sequence[Scoreboard]] = None,
    mp_context: Optional[str] = None,
    record_transitions: bool = False,
    oversubscribe: bool = False,
    engine: str = AUTO,
) -> List[MonitorResult]:
    """:func:`run_sharded` over pre-encoded valuation-mask arrays.

    The entry point for callers that already hold the encoded corpus —
    the serve layer's cached ``corpus`` op hands
    :class:`~repro.trace.columnar.ColumnarTraceSet` mask arrays
    straight to the pool without re-encoding (or re-touching the trace
    objects at all).  Semantics otherwise match :func:`run_sharded`.
    """
    compiled = as_compiled(monitor)
    plan = plan_execution(compiled, Workload.from_traces(mask_arrays),
                          engine, capability="sharded_worker")
    if scoreboards is not None and len(scoreboards) != len(mask_arrays):
        raise MonitorError(
            "run_sharded needs exactly one scoreboard per trace when provided"
        )
    jobs = resolve_jobs(jobs, oversubscribe=oversubscribe)
    if jobs <= 1 or len(mask_arrays) <= 1:
        if scoreboards is not None:
            scoreboards = pickle.loads(pickle.dumps(list(scoreboards)))
        return plan.encoded_runner()(
            compiled, mask_arrays, scoreboards,
            record_transitions=record_transitions,
        )
    return _fan_out_encoded(compiled, mask_arrays, plan.engine, jobs,
                            scoreboards, mp_context, record_transitions)


def _fan_out_encoded(compiled, masks, engine_name, jobs, scoreboards,
                     mp_context, record_transitions) -> List[MonitorResult]:
    """Chunk encoded mask arrays and run them through the pool."""
    lengths = [len(stream) for stream in masks]
    bounds = _chunk_bounds(lengths, min(jobs, len(masks)))
    digest, payload = _ship(compiled)
    tasks = [
        (digest, payload, list(masks[start:end]),
         list(scoreboards[start:end]) if scoreboards is not None else None,
         record_transitions, engine_name)
        for start, end in bounds
    ]
    pool = _get_pool(mp_context, min(jobs, len(tasks)))
    chunk_results = pool.map(_run_chunk, tasks)
    results: List[MonitorResult] = []
    for chunk in chunk_results:
        results.extend(chunk)
    return results


def _check_vcd_with(monitor, task):
    """Check one dump in this process.

    Table engines read the dump's masks straight into the planned batch
    kernel; the interpreted engine streams the decoded valuations
    through a :class:`~repro.trace.streaming.StreamingChecker`.
    """
    from repro.trace.columnar import check_masks
    from repro.trace.streaming import StreamingChecker
    from repro.trace.vcd_reader import VcdReader

    path, sampling, binding, engine = task
    with VcdReader(path, binding=binding) as reader:
        if engine != AUTO and not backend(engine).batch:
            return StreamingChecker(monitor, engine=engine).feed(
                reader.valuations(**sampling)
            )
        masks = reader.masks(monitor.codec, **sampling)
    return check_masks(monitor, masks, engine)


def _check_vcd_task(task):
    digest, payload, check_task = task
    return _check_vcd_with(_cached_monitor(digest, payload), check_task)


def run_sharded_vcd(
    monitor: Union[Monitor, CompiledMonitor],
    paths: Sequence[str],
    jobs: Optional[int] = None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    binding=None,
    mp_context: Optional[str] = None,
    oversubscribe: bool = False,
    engine: str = AUTO,
    cache=None,
) -> list:
    """Check many VCD dumps in parallel, parsing inside the workers.

    Unlike materialising each dump and calling :func:`run_sharded`,
    only the *paths* travel to the pool: each worker opens, parses and
    checks its own dump, so the parsing cost is per worker.  Each dump
    streams through the VCD front-end in bounded blocks into one mask
    array (4 bytes a tick, held whole), which the planned batch kernel
    checks — see :func:`~repro.trace.columnar.check_masks`; the
    interpreted engine instead streams decoded valuations.  Returns
    one :class:`~repro.trace.streaming.StreamReport` per path, in
    input order.  ``clock``/``period``/``offset``/``until``/``binding``
    are the :meth:`~repro.trace.vcd_reader.VcdReader.masks` sampling
    parameters, applied to every dump.

    ``cache`` (a :class:`~repro.cache.CorpusCache` or its root
    directory) switches to the columnar corpus path, in this process:
    dumps are resolved through
    :func:`~repro.trace.columnar.ingest_vcd` — warm entries skip
    parsing entirely; misses parse and populate the cache — and
    ``jobs`` has no effect.  Verdicts are identical either way.
    """
    compiled = as_compiled(monitor)
    if cache is not None:
        from repro.trace.columnar import check_vcd_cached

        return check_vcd_cached(
            compiled, [os.fspath(path) for path in paths], cache,
            clock=clock, period=period, offset=offset, until=until,
            binding=binding, engine=engine,
        )
    if engine != AUTO:
        # Table engines check masks in batch; an engine without batch
        # execution (interpreted) streams valuations instead.
        require_backend(engine,
                        "batch" if backend(engine).batch else "streaming")
    jobs = resolve_jobs(jobs, oversubscribe=oversubscribe)
    sampling = dict(clock=clock, period=period, offset=offset, until=until)
    check_tasks = [(os.fspath(path), sampling, binding, engine)
                   for path in paths]
    if jobs <= 1 or len(check_tasks) <= 1:
        return [_check_vcd_with(compiled, task) for task in check_tasks]
    # Workers plan "auto" against their own process (its compiler).
    digest, payload = _ship(compiled)
    tasks = [(digest, payload, task) for task in check_tasks]
    pool = _get_pool(mp_context, min(jobs, len(tasks)))
    return pool.map(_check_vcd_task, tasks)


def run_bank_sharded(
    bank,
    traces: Sequence[Trace],
    jobs: Optional[int] = None,
    mp_context: Optional[str] = None,
    oversubscribe: bool = False,
    engine: str = AUTO,
) -> list:
    """Run every member of a monitor bank over many traces, sharded.

    Returns one :class:`~repro.synthesis.compose.BankResult` per trace
    (input order), identical to ``bank.run_batch(traces)``.  Work units
    are (member, trace-chunk) pairs, so parallelism comes from both
    axes — many traces, or few traces against a many-member bank.
    Traces are encoded in the parent once per distinct member codec
    (members over the same alphabet share mask arrays through the codec
    cache) and only the arrays ship to the pool.
    """
    from repro.synthesis.compose import BankResult

    members = bank.compiled_members()
    # The bank's members share one workload shape; plan once against
    # the first member (same-alphabet members lower to like tables).
    workload = Workload.from_traces(traces) if members else Workload()
    plan = plan_execution(members[0] if members else None, workload,
                          engine, capability="sharded_worker")
    jobs = resolve_jobs(jobs, oversubscribe=oversubscribe)
    if jobs <= 1 or (len(traces) <= 1 and len(members) <= 1):
        return bank.run_batch(traces, engine=plan.engine)
    if not traces:
        return []
    lengths = [len(trace) for trace in traces]
    per_member_chunks = max(1, jobs // len(members))
    bounds = _chunk_bounds(lengths, min(per_member_chunks, len(traces)))
    shipped = [_ship(member) for member in members]
    tasks = []
    member_of_task = []
    encoded_by_codec: Dict[tuple, list] = {}
    for member_index, (digest, payload) in enumerate(shipped):
        codec = members[member_index].codec
        masks = encoded_by_codec.get(codec.symbols)
        if masks is None:
            # Same-codec members share one encoding.
            masks = encoded_by_codec[codec.symbols] = \
                codec.encode_many(traces)
        for start, end in bounds:
            tasks.append((digest, payload, list(masks[start:end]),
                          None, False, plan.engine))
            member_of_task.append(member_index)
    pool = _get_pool(mp_context, min(jobs, len(tasks)))
    chunk_results = pool.map(_run_chunk, tasks)
    # Tasks are member-major with chunks in trace order, and pool.map
    # preserves order, so a single pass reassembles per-member lists.
    per_member: List[List[MonitorResult]] = [[] for _ in members]
    for member_index, chunk in zip(member_of_task, chunk_results):
        per_member[member_index].extend(chunk)
    return [
        BankResult([member[i] for member in per_member])
        for i in range(len(traces))
    ]
