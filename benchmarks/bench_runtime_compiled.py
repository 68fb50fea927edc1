"""Head-to-head: compiled table dispatch vs interpreted guard walking.

The compiled runtime exists to make monitoring "run as fast as the
hardware allows": synthesis already pays ``(n+1) * 2^|Sigma|`` to
enumerate every valuation, so stepping should be a table lookup, not a
guard-tree interpretation.  This bench runs both engines over
identical bench_scaling-sized traces and

* asserts the compiled engine wins on every workload (>= 5x on the
  check-free chain chart, strictly faster on the scoreboard-heavy OCP
  chart and in batch mode), and
* emits ``BENCH_runtime.json`` at the repo root so the speedup
  trajectory is recorded run over run.
"""

import functools
import pathlib
import time

from repro import TraceGenerator, run_monitor, tr
from repro.cesc.builder import ev, scesc
from repro.cesc.charts import ScescChart
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime import compile_monitor, run_compiled, run_many

from bench_scaling import _chain_chart
from conftest import record_results

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_runtime.json"

_TRACE_TICKS = 2000
_REPEATS = 3


def _best_of(repeats, fn, *args):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


#: Every top-level key this module records in BENCH_runtime.json.
_RESULT_KEYS = frozenset({
    "batch_32x", "chain12", "ocp_simple_read", "synthesis_chain12",
})
_record = functools.partial(record_results, _RESULTS_PATH, _RESULT_KEYS)


def test_headtohead_chain_chart(report):
    """Check-free KMP chart: pure dispatch, the >= 5x acceptance bar."""
    chart = _chain_chart(12)
    monitor = tr(chart)
    compiled = compile_monitor(monitor)
    generator = TraceGenerator(ScescChart(chart), seed=4)
    trace = generator.satisfying_trace(
        prefix=_TRACE_TICKS // 2, suffix=_TRACE_TICKS // 2
    )
    reference = run_monitor(monitor, trace)
    assert run_compiled(compiled, trace).states == reference.states

    interpreted_s = _best_of(_REPEATS, run_monitor, monitor, trace)
    compiled_s = _best_of(_REPEATS, run_compiled, compiled, trace)
    speedup = interpreted_s / compiled_s
    report(f"chain12 x {trace.length} ticks: interpreted {interpreted_s:.4f}s"
           f"  compiled {compiled_s:.4f}s  speedup {speedup:.1f}x")
    _record({"chain12": {
        "ticks": trace.length,
        "interpreted_s": round(interpreted_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(speedup, 2),
    }})
    assert speedup >= 5.0, (
        f"compiled engine only {speedup:.1f}x faster; table dispatch "
        "should beat guard interpretation by >= 5x on check-free charts"
    )


def test_headtohead_scoreboard_chart(report):
    """Causality chart: check-ladder cells still beat guard walking."""
    chart = ocp_simple_read_chart()
    monitor = tr(chart)
    compiled = compile_monitor(monitor)
    generator = TraceGenerator(ScescChart(chart), seed=7)
    trace = generator.satisfying_trace(
        prefix=_TRACE_TICKS // 2, suffix=_TRACE_TICKS // 2
    )
    reference = run_monitor(monitor, trace)
    assert run_compiled(compiled, trace).detections == reference.detections

    interpreted_s = _best_of(_REPEATS, run_monitor, monitor, trace)
    compiled_s = _best_of(_REPEATS, run_compiled, compiled, trace)
    speedup = interpreted_s / compiled_s
    report(f"ocp_simple_read x {trace.length} ticks: interpreted "
           f"{interpreted_s:.4f}s  compiled {compiled_s:.4f}s  "
           f"speedup {speedup:.1f}x")
    _record({"ocp_simple_read": {
        "ticks": trace.length,
        "interpreted_s": round(interpreted_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(speedup, 2),
    }})
    assert speedup > 1.0, "compiled engine must beat the interpreter"


def test_batch_lockstep_vs_sequential_interpreted(report):
    """run_many over N traces vs N sequential interpreted runs."""
    chart = _chain_chart(8)
    monitor = tr(chart)
    compiled = compile_monitor(monitor)
    generator = TraceGenerator(ScescChart(chart), seed=11)
    traces = [generator.satisfying_trace(prefix=50, suffix=150)
              for _ in range(32)]

    def sequential():
        return [run_monitor(monitor, trace) for trace in traces]

    def batched():
        return run_many(compiled, traces)

    for left, right in zip(sequential(), batched()):
        assert left.states == right.states
        assert left.detections == right.detections

    interpreted_s = _best_of(_REPEATS, sequential)
    compiled_s = _best_of(_REPEATS, batched)
    speedup = interpreted_s / compiled_s
    total_ticks = sum(t.length for t in traces)
    report(f"batch of {len(traces)} traces ({total_ticks} ticks): "
           f"interpreted {interpreted_s:.4f}s  compiled {compiled_s:.4f}s  "
           f"speedup {speedup:.1f}x")
    _record({"batch_32x": {
        "traces": len(traces),
        "ticks": total_ticks,
        "interpreted_s": round(interpreted_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(speedup, 2),
    }})
    assert speedup >= 5.0, (
        f"batch dispatch only {speedup:.1f}x faster than sequential "
        "interpretation"
    )


def test_compiled_synthesis_is_not_slower(report):
    """tr_compiled skips minterm construction — it should not regress."""
    from repro.synthesis.tr import tr_compiled

    chart = _chain_chart(12)
    interpreted_s = _best_of(_REPEATS, tr, chart)
    compiled_s = _best_of(_REPEATS, tr_compiled, chart)
    report(f"synthesis chain12: tr {interpreted_s:.4f}s  "
           f"tr_compiled {compiled_s:.4f}s")
    _record({"synthesis_chain12": {
        "tr_s": round(interpreted_s, 6),
        "tr_compiled_s": round(compiled_s, 6),
    }})
    # Generous bound: direct emission must stay in the same ballpark.
    assert compiled_s < interpreted_s * 2.0
