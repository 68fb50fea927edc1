"""Tests for ``run_sharded_vcd`` (dumps checked in this process), the
job-count helpers ``perfbench/traced.py`` calls, and the pickling
contract of the value classes."""

import pickle

import pytest

from repro import (
    Trace,
    TraceGenerator,
    run_many,
    tr,
    tr_compiled,
)
from repro.cesc.builder import ev, scesc
from repro.errors import MonitorError
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.runtime.compiled import compile_monitor
from repro.trace.shard import available_cores, resolve_jobs


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


# -------------------------------------------------------- run_sharded_vcd ----
def test_run_sharded_vcd_checks_every_dump_in_order(tmp_path):
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
    reports = run_sharded_vcd(compiled, paths, clock="clk")
    assert [r.detections for r in reports] == expected
    streamed = run_sharded_vcd(tr(chart), paths, clock="clk",
                               engine="interpreted")
    assert [r.detections for r in streamed] == expected
    assert run_sharded_vcd(compiled, []) == []


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
        tr_compiled(chart), [path, path], clock="clk", binding=binding,
    )
    assert [r.detections for r in reports] == [[1], [1]]


# --------------------------------------------------------------- helpers ----
def test_resolve_jobs():
    """``perfbench/traced.py`` names a parse span by this count."""
    cores = available_cores()
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == min(3, cores)
    assert resolve_jobs(cores + 7) == cores
    assert resolve_jobs(None) == cores
    assert resolve_jobs(0) == cores
    with pytest.raises(MonitorError):
        resolve_jobs(-2)


def test_available_cores_prefers_scheduler_affinity(monkeypatch):
    """``os.cpu_count()`` overstates the budget inside
    cgroup/affinity-limited runs: the affinity set is the count."""
    import os as os_module

    from repro.trace import shard

    monkeypatch.setattr(os_module, "cpu_count", lambda: 64)
    monkeypatch.setattr(os_module, "sched_getaffinity",
                        lambda pid: {0, 5, 9}, raising=False)
    assert shard.available_cores() == 3
    assert shard.resolve_jobs(0) == 3
    assert shard.resolve_jobs(None) == 3
    assert shard.resolve_jobs(8) == 3
    # An affinity probe failure falls back to the machine count.
    def broken(pid):
        raise OSError("no affinity syscall")
    monkeypatch.setattr(os_module, "sched_getaffinity", broken,
                        raising=False)
    assert shard.available_cores() == 64
    # Platforms without the call at all (macOS, Windows) also fall back.
    monkeypatch.delattr(os_module, "sched_getaffinity", raising=False)
    assert shard.available_cores() == 64


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
