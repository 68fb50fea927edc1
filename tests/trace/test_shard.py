"""Tests for the sharded parallel runner (and its pickling contract)."""

import pickle
import threading

import pytest

from repro import (
    Scoreboard,
    Trace,
    TraceGenerator,
    run_bank_sharded,
    run_many,
    run_sharded,
    synthesize_chart,
    tr,
    tr_compiled,
)
from repro.cesc.builder import ev, scesc
from repro.errors import MonitorError
from repro.monitor.automaton import Monitor, Transition
from repro.logic.expr import TRUE
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.runtime.compiled import compile_monitor
from repro.trace.shard import _chunk_bounds, available_cores, resolve_jobs


def _traces(chart, count, seed=0):
    out = []
    for index in range(count):
        generator = TraceGenerator(chart, seed=seed + index)
        if index % 3 == 2:
            out.append(generator.random_trace(4 + index % 5))
        else:
            out.append(
                generator.satisfying_trace(prefix=index % 3, suffix=index % 2)
            )
    return out


def _assert_same(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.monitor_name == b.monitor_name
        assert a.detections == b.detections
        assert a.ticks == b.ticks


# ----------------------------------------------------------- run_sharded ----
@pytest.mark.parametrize("chart_builder",
                         [ocp_simple_read_chart, ocp_burst_read_chart])
def test_run_sharded_matches_run_many(chart_builder):
    chart = chart_builder()
    compiled = tr_compiled(chart)
    traces = _traces(chart, 14)
    # oversubscribe forces real worker processes even on a 1-core box,
    # keeping this a genuine cross-process check.
    _assert_same(
        run_sharded(compiled, traces, jobs=4, oversubscribe=True),
        run_many(compiled, traces),
    )


def test_run_sharded_accepts_interpreted_monitor_input():
    chart = ocp_simple_read_chart()
    traces = _traces(chart, 6)
    _assert_same(
        run_sharded(tr(chart), traces, jobs=2, oversubscribe=True),
        run_many(tr_compiled(chart), traces),
    )


def test_run_sharded_reuses_worker_pool_across_calls_and_monitors():
    """Campaign loops issue many sharded batches; the pool must persist
    and serve different monitors through the worker-side cache."""
    from repro.trace import shard

    shard.shutdown_worker_pools()
    simple = tr_compiled(ocp_simple_read_chart())
    burst = tr_compiled(ocp_burst_read_chart())
    simple_traces = _traces(ocp_simple_read_chart(), 6)
    burst_traces = _traces(ocp_burst_read_chart(), 6)
    _assert_same(
        run_sharded(simple, simple_traces, jobs=2, oversubscribe=True),
        run_many(simple, simple_traces),
    )
    assert len(shard._POOLS) == 1
    pool_before = next(iter(shard._POOLS.values()))[0]
    _assert_same(
        run_sharded(burst, burst_traces, jobs=2, oversubscribe=True),
        run_many(burst, burst_traces),
    )
    assert next(iter(shard._POOLS.values()))[0] is pool_before
    # A bigger request grows the pool (and retires the old one).
    _assert_same(
        run_sharded(simple, simple_traces, jobs=3, oversubscribe=True),
        run_many(simple, simple_traces),
    )
    assert next(iter(shard._POOLS.values()))[1] >= 3
    shard.shutdown_worker_pools()
    assert shard._POOLS == {}


def test_run_sharded_record_transitions_round_trips_workers():
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    traces = _traces(chart, 6)
    sharded = run_sharded(compiled, traces, jobs=2, oversubscribe=True,
                          record_transitions=True)
    local = run_many(compiled, traces, record_transitions=True)
    universe = set(compiled.transitions)
    for a, b in zip(sharded, local):
        assert a.transitions == b.transitions
        assert set(a.transitions) <= universe
    plain = run_sharded(compiled, traces, jobs=2, oversubscribe=True)
    assert all(r.transitions is None for r in plain)


def test_run_sharded_single_job_and_single_trace_skip_pool():
    chart = ocp_simple_read_chart()
    traces = _traces(chart, 3)
    _assert_same(run_sharded(tr_compiled(chart), traces, jobs=1),
                 run_many(tr_compiled(chart), traces))
    _assert_same(run_sharded(tr_compiled(chart), traces[:1], jobs=8),
                 run_many(tr_compiled(chart), traces[:1]))
    assert run_sharded(tr_compiled(chart), [], jobs=4) == []


def test_run_sharded_scoreboard_validation():
    chart = ocp_simple_read_chart()
    traces = _traces(chart, 4)
    with pytest.raises(MonitorError, match="one scoreboard per trace"):
        run_sharded(tr_compiled(chart), traces, scoreboards=[Scoreboard()])


def test_fallback_path_does_not_mutate_caller_scoreboards():
    """jobs=1 honours the same isolation contract as the pooled path."""
    chart = ocp_simple_read_chart()
    traces = _traces(chart, 3)
    boards = [Scoreboard() for _ in traces]
    run_sharded(tr_compiled(chart), traces, jobs=1, scoreboards=boards)
    assert all(len(board) == 0 for board in boards)
    run_sharded(tr_compiled(chart), traces[:1], jobs=4,
                scoreboards=boards[:1])
    assert len(boards[0]) == 0


def test_run_sharded_with_scoreboards_matches():
    chart = ocp_simple_read_chart()
    traces = _traces(chart, 6)
    boards = [Scoreboard() for _ in traces]
    sharded = run_sharded(tr_compiled(chart), traces, jobs=3,
                          scoreboards=[Scoreboard() for _ in traces])
    _assert_same(sharded, run_many(tr_compiled(chart), traces, boards))


def test_worker_errors_propagate():
    incomplete = Monitor(
        "stuck", n_states=2, initial=0, final=1,
        transitions=[Transition(0, TRUE, (), 1)],  # state 1 is a dead end
        alphabet={"a"},
    )
    compiled = compile_monitor(incomplete)
    traces = [Trace.from_sets([{"a"}, {"a"}], {"a"})] * 4
    with pytest.raises(MonitorError, match="no transition enabled"):
        run_sharded(compiled, traces, jobs=2, oversubscribe=True)


# ------------------------------------------------------ run_bank_sharded ----
def test_run_bank_sharded_matches_run_batch():
    chart = ocp_simple_read_chart()
    bank = synthesize_chart(chart)
    traces = _traces(chart, 10)
    sharded = run_bank_sharded(bank, traces, jobs=4, oversubscribe=True)
    batch = bank.run_batch(traces)
    assert len(sharded) == len(batch)
    for a, b in zip(sharded, batch):
        assert a.detections == b.detections
        assert a.accepted == b.accepted


def test_run_batch_jobs_parameter_shards():
    chart = ocp_simple_read_chart()
    bank = synthesize_chart(chart)
    traces = _traces(chart, 8)
    jobs2 = bank.run_batch(traces, jobs=2)
    plain = bank.run_batch(traces)
    assert [r.detections for r in jobs2] == [r.detections for r in plain]
    assert run_bank_sharded(bank, [], jobs=4) == []


# -------------------------------------------------------- run_sharded_vcd ----
def test_run_sharded_vcd_parses_in_workers(tmp_path):
    from repro.trace import run_sharded_vcd, trace_to_vcd

    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    paths, expected = [], []
    for seed in range(5):
        generator = TraceGenerator(chart, seed=seed)
        trace = generator.satisfying_trace(prefix=seed % 2, suffix=1)
        path = tmp_path / f"dump{seed}.vcd"
        path.write_text(trace_to_vcd(trace, clock="clk"))
        paths.append(path)
        expected.append(run_many(compiled, [trace])[0].detections)
    for jobs in (1, 3):
        reports = run_sharded_vcd(compiled, paths, jobs=jobs, clock="clk",
                                  oversubscribe=True)
        assert [r.detections for r in reports] == expected
    assert run_sharded_vcd(compiled, [], jobs=3) == []


def test_run_sharded_vcd_with_binding(tmp_path):
    from repro.trace import SignalBinding, run_sharded_vcd, trace_to_vcd

    trace = Trace.from_sets([{"HREQ"}, {"b"}], {"HREQ", "b"})
    path = tmp_path / "renamed.vcd"
    path.write_text(trace_to_vcd(trace, clock="clk"))
    chart = (
        scesc("ab").instances("M").tick(ev("a")).tick(ev("b")).build()
    )
    binding = SignalBinding({"HREQ": "a"})
    reports = run_sharded_vcd(
        tr_compiled(chart), [path, path], jobs=2, clock="clk",
        binding=binding, oversubscribe=True,
    )
    assert [r.detections for r in reports] == [[1], [1]]


# --------------------------------------------------------------- helpers ----
def test_chunk_bounds_cover_all_traces_in_order():
    lengths = [5, 1, 1, 1, 10, 2, 2, 2, 2, 30]
    for n_chunks in (1, 2, 3, 4, len(lengths)):
        bounds = _chunk_bounds(lengths, n_chunks)
        flattened = [i for s, e in bounds for i in range(s, e)]
        assert flattened == list(range(len(lengths)))
        assert all(end > start for start, end in bounds)


def test_chunk_bounds_do_not_swallow_tail_heavy_workloads():
    """A long trace after short ones must land in its own chunk, not
    glue everything into one (regression: [1,1,1,1,100] with 4 chunks
    came back as a single chunk, serialising the pool)."""
    assert len(_chunk_bounds([1, 1, 1, 1, 100], 4)) >= 2
    assert len(_chunk_bounds([1, 1, 10], 2)) == 2
    # Balanced workloads still split evenly.
    assert _chunk_bounds([5, 5, 5, 5], 2) == [(0, 2), (2, 4)]


def test_resolve_jobs():
    cores = available_cores()
    # Explicit requests are capped at the core count: oversubscribing
    # a CPU-bound lock-step loop is pure overhead (the regression that
    # made jobs=4 3x slower than single-process on a 1-core box).
    assert resolve_jobs(3) == min(3, cores)
    assert resolve_jobs(3, oversubscribe=True) == 3
    assert resolve_jobs(cores + 7) == cores
    assert resolve_jobs(None) == cores
    assert resolve_jobs(0) == cores
    with pytest.raises(MonitorError):
        resolve_jobs(-2)


def test_available_cores_prefers_scheduler_affinity(monkeypatch):
    """Regression: ``resolve_jobs`` sized pools from ``os.cpu_count()``,
    which overstates the budget inside cgroup/affinity-limited runs —
    a jobs=0 campaign on a 2-of-64-core container spun up 64 workers."""
    import os as os_module

    from repro.trace import shard

    monkeypatch.setattr(os_module, "cpu_count", lambda: 64)
    monkeypatch.setattr(os_module, "sched_getaffinity",
                        lambda pid: {0, 5, 9}, raising=False)
    assert shard.available_cores() == 3
    assert shard.resolve_jobs(0) == 3
    assert shard.resolve_jobs(None) == 3
    assert shard.resolve_jobs(8) == 3
    assert shard.resolve_jobs(8, oversubscribe=True) == 8
    # An affinity probe failure falls back to the machine count.
    def broken(pid):
        raise OSError("no affinity syscall")
    monkeypatch.setattr(os_module, "sched_getaffinity", broken,
                        raising=False)
    assert shard.available_cores() == 64
    # Platforms without the call at all (macOS, Windows) also fall back.
    monkeypatch.delattr(os_module, "sched_getaffinity", raising=False)
    assert shard.available_cores() == 64


# ---------------------------------------------------- pickled handoff ----
@pytest.mark.parametrize("engine", ["compiled", "native"])
def test_large_batches_ship_pickled_masks(engine):
    """Batches well above 32 KiB of masks travel pickled inside the
    tasks, to real workers, with ``run_many``'s results."""
    from repro.runtime.engines import backend

    reason = backend(engine).unavailable_reason()
    if reason is not None:
        pytest.skip(f"{engine} backend unavailable: {reason}")
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    traces = []
    for index, trace in enumerate(_traces(chart, 8)):
        while len(trace) < 1200:
            trace = trace.concat(_traces(chart, 1, seed=index)[0])
        traces.append(trace)
    assert sum(len(trace) for trace in traces) >= 8192
    reference = run_many(compiled, traces)
    _assert_same(run_sharded(compiled, traces, jobs=2, oversubscribe=True,
                             engine=engine), reference)
    bank = synthesize_chart(chart)
    sharded = run_bank_sharded(bank, traces, jobs=2, oversubscribe=True,
                               engine=engine)
    members = bank.compiled_members()
    for index, member in enumerate(members):
        _assert_same([result.results[index] for result in sharded],
                     run_many(member, traces))


# ------------------------------------------------------- pool lifecycle ----
def test_get_pool_retires_mismatched_sizes_without_stranding():
    from repro.trace import shard

    shard.shutdown_worker_pools()
    first = shard._get_pool(None, 2)
    assert shard._get_pool(None, 2) is first
    second = shard._get_pool(None, 3)
    assert second is not first
    # Exactly one cached pool per start method, sized as last requested.
    assert len(shard._POOLS) == 1
    assert next(iter(shard._POOLS.values()))[1] == 3
    # The retired pool's processes are gone, not stranded.
    assert all(not p.is_alive() for p in first._pool)
    shard.shutdown_worker_pools()


def test_shutdown_worker_pools_is_idempotent_under_concurrency():
    from repro.trace import shard

    shard.shutdown_worker_pools()
    shard._get_pool(None, 2)
    errors = []

    def hammer():
        try:
            for _ in range(5):
                shard.shutdown_worker_pools()
        except BaseException as error:  # pragma: no cover - the bug
            errors.append(error)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert shard._POOLS == {}
    shard.shutdown_worker_pools()  # and once more on an empty registry


# --------------------------------------------------------------- pickling ----
def test_compiled_monitor_pickle_round_trip_preserves_semantics():
    chart = ocp_burst_read_chart()
    traces = _traces(chart, 5)
    for compiled in (tr_compiled(chart), compile_monitor(tr(chart))):
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.name == compiled.name
        assert clone.n_states == compiled.n_states
        assert clone.codec.symbols == compiled.codec.symbols
        assert clone.ladder_exclusive == compiled.ladder_exclusive
        _assert_same(run_many(clone, traces), run_many(compiled, traces))


def test_trace_and_valuation_pickle_round_trip():
    chart = ocp_simple_read_chart()
    trace = _traces(chart, 1)[0]
    clone = pickle.loads(pickle.dumps(trace))
    assert clone == trace
    assert hash(clone) == hash(trace)
