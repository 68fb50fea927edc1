"""Native-backend benchmarks: single-stream and batch latency.

Measures the compile-on-demand C table-stepper
(:mod:`repro.runtime.native`) on the workloads the planner routes to
it, against the scalar compiled loop on identical inputs:

* **single-stream** OCP simple read and AMBA AHB — one lane, the
  shape interactive checking and per-trace CLI runs produce; the CI
  gate requires the native stepper to beat the scalar compiled loop
  by >= 3x per lane (locally ~5-7x);
* the **auto-vs-best** legs — ``engine="auto"`` must stay within 10%
  of the best explicit backend at w1 and w32 *both* with the host
  compiler visible and with ``REPRO_NO_CC=1`` hiding it (the planner
  then falls back to the compiled loop);
* **single-stream chunked** OCP simple read and AMBA AHB — one
  :class:`~repro.trace.streaming.StreamingChecker` fed 500-tick
  chunks, the shape of a ``repro serve`` stream; the gate requires the
  ``native`` stream engine (one C call a chunk, state kept in C) to
  beat the ``compiled`` chunk loop by >= 3x.

Compilation happens once per monitor outside every timed region (the
shared object persists in the on-disk cache), so the numbers measure
stepping, not ``cc``.  Verdict identity is asserted hard on every
workload before timing.  Results land in ``BENCH_native.json``.
"""

import functools
import pathlib
import time

import pytest

from repro import TraceGenerator
from repro.cesc.charts import ScescChart
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.compiled import run_many, run_many_encoded
from repro.runtime.engines import AUTO, Workload, plan_execution
from repro.runtime.native import (
    native_kernel,
    run_many_native,
    run_many_native_encoded,
    unavailable_reason,
)
from repro.synthesis.tr import tr_compiled
from repro.trace.streaming import StreamingChecker

from conftest import record_results

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_native.json"

#: Long single-lane traces so per-call dispatch overhead (an honest
#: cost, but a fixed ~20us one) does not dominate the per-tick rates
#: — single-stream checking is interesting precisely when traces are
#: long enough for per-tick speed to matter.
_SINGLE_TICKS = 8000
_BATCH_TICKS = 200
#: The auto legs re-plan inside the timed region; longer batch traces
#: keep that fixed cost under a few percent of the run it dispatches.
_AUTO_BATCH_TICKS = 800
#: The batch width of the auto legs besides one lane.
_NARROW_WIDTH = 32
#: Ticks per pushed chunk in the stream legs (serve's push size).
_STREAM_CHUNK = 500
_REPEATS = 5
#: CI gates.
_MIN_SINGLE_SPEEDUP = 3.0   # native vs scalar compiled, one lane
_MIN_AUTO_VS_BEST = 0.9      # auto within 10% of best explicit
_MIN_STREAM_SPEEDUP = 3.0   # native vs compiled stream engine

_SUITES = (
    ("ocp_simple_read", ocp_simple_read_chart, 7),
    ("ahb_transaction", ahb_transaction_chart, 9),
)


#: Every top-level key this module records in BENCH_native.json.
_RESULT_KEYS = frozenset(
    [f"{name}_single" for name, _, _ in _SUITES]
    + [f"{name}_stream" for name, _, _ in _SUITES]
    + ["auto_vs_best"]
)
_record = functools.partial(record_results, _RESULTS_PATH, _RESULT_KEYS)


def _best_rate(fn, total_ticks, repeats=_REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return total_ticks / best


def _skip_unless_native():
    reason = unavailable_reason()
    if reason is not None:
        pytest.skip(f"native backend unavailable: {reason}")


def _trace(chart, seed, ticks):
    generator = TraceGenerator(ScescChart(chart), seed=seed)
    return generator.satisfying_trace(prefix=ticks // 2, suffix=ticks // 2)


def test_native_single_stream_throughput(report):
    """One lane: the native stepper vs the scalar compiled loop."""
    _skip_unless_native()
    results = {}
    for name, build, seed in _SUITES:
        chart = build()
        compiled = tr_compiled(chart)
        assert native_kernel(compiled) is not None, (
            f"{name}: table did not lower to C; single-stream numbers "
            "would silently measure the scalar fallback"
        )
        base = _trace(chart, seed, _SINGLE_TICKS)
        batch = [base]
        total = len(base)
        for left, right in zip(run_many(compiled, batch),
                               run_many_native(compiled, batch)):
            assert left.detections == right.detections
            assert left.ticks == right.ticks
            assert left.states == right.states
        mask_lists = compiled.codec.encode_many(batch, as_list=True)
        compiled_rate = _best_rate(
            lambda: run_many_encoded(compiled, mask_lists), total
        )
        native_rate = _best_rate(
            lambda: run_many_native_encoded(compiled, mask_lists), total
        )
        suite = {
            "ticks": total,
            "compiled_ticks_per_s": round(compiled_rate),
            "native_ticks_per_s": round(native_rate),
            "speedup": round(native_rate / compiled_rate, 2),
        }
        report(f"{name} single-stream: {suite}")
        results[f"{name}_single"] = suite
    _record(results)
    for name, suite in results.items():
        assert suite["speedup"] >= _MIN_SINGLE_SPEEDUP, (
            f"{name}: native stepper only {suite['speedup']:.2f}x of "
            f"the scalar compiled loop (gate {_MIN_SINGLE_SPEEDUP}x)"
        )


def _auto_leg(compiled, widths, trace_for):
    """Time auto against every *available* explicit batch backend."""
    from repro.runtime.engines import backend

    leg = {"native_available": unavailable_reason() is None}
    for width in widths:
        base = trace_for(width)
        batch = [base] * width
        total = sum(len(trace) for trace in batch)
        mask_lists = compiled.codec.encode_many(batch, as_list=True)

        plan = plan_execution(compiled, Workload.from_traces(batch))
        leg[f"auto_engine_w{width}"] = plan.engine

        def run_auto():
            live = plan_execution(compiled, Workload.from_traces(batch),
                                  AUTO)
            live.encoded_runner()(compiled, mask_lists)

        contenders = [
            ("compiled", lambda: run_many_encoded(compiled, mask_lists)),
        ]
        if backend("native").unavailable_reason() is None:
            contenders.append(
                ("native", lambda: run_many_native_encoded(
                    compiled, mask_lists))
            )
        contenders.append(("auto", run_auto))
        for _, fn in contenders:  # untimed warmup
            fn()
        # Interleave and rotate the timing rounds so machine noise
        # hits every contender alike (the gate compares rates against
        # each other, not against a wall-clock budget).
        elapsed = {name: None for name, _ in contenders}
        for round_index in range(4 * _REPEATS):
            shift = round_index % len(contenders)
            for name, fn in contenders[shift:] + contenders[:shift]:
                start = time.perf_counter()
                fn()
                took = time.perf_counter() - start
                if elapsed[name] is None or took < elapsed[name]:
                    elapsed[name] = took
        rates = {name: total / took for name, took in elapsed.items()}
        best = max(rate for name, rate in rates.items() if name != "auto")
        for name, rate in rates.items():
            leg[f"{name}_ticks_per_s_w{width}"] = round(rate)
        leg[f"auto_vs_best_w{width}"] = round(rates["auto"] / best, 3)
    return leg


def test_auto_tracks_best_backend_with_and_without_cc(report, monkeypatch):
    """``engine="auto"`` stays within 10% of the best explicit backend
    at w1 and w32, with the compiler visible and with ``REPRO_NO_CC``
    hiding it (the planner must fall back without a throughput cliff).
    """
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    if unavailable_reason() is None:
        # Pay the one-off compile before any timed region.
        native_kernel(compiled)

    def trace_for(width):
        ticks = _SINGLE_TICKS if width == 1 else _AUTO_BATCH_TICKS
        return _trace(chart, seed=7, ticks=ticks)

    results = {}
    monkeypatch.delenv("REPRO_NO_CC", raising=False)
    results["with_cc"] = _auto_leg(compiled, (1, _NARROW_WIDTH), trace_for)
    monkeypatch.setenv("REPRO_NO_CC", "1")
    results["no_cc"] = _auto_leg(compiled, (1, _NARROW_WIDTH), trace_for)
    monkeypatch.delenv("REPRO_NO_CC", raising=False)

    # The fallback leg must never plan the hidden backend.
    for width in (1, _NARROW_WIDTH):
        assert results["no_cc"][f"auto_engine_w{width}"] != "native"
    for leg_name, leg in results.items():
        report(f"auto {leg_name}: {leg}")
        for width in (1, _NARROW_WIDTH):
            ratio = leg[f"auto_vs_best_w{width}"]
            assert ratio >= _MIN_AUTO_VS_BEST, (
                f"{leg_name}: auto only {ratio:.2f}x of the best "
                f"explicit backend at w{width} (gate "
                f"{_MIN_AUTO_VS_BEST}x; planned "
                f"{leg[f'auto_engine_w{width}']!r})"
            )
    _record({"auto_vs_best": results})


def test_native_stream_chunk_throughput(report):
    """One stream in 500-tick chunks: the native stream engine vs the
    compiled engine's chunk loop, through the checker serve drives."""
    _skip_unless_native()
    results = {}
    for name, build, seed in _SUITES:
        chart = build()
        compiled = tr_compiled(chart)
        assert native_kernel(compiled) is not None, (
            f"{name}: table did not lower to C; the native stream leg "
            "would silently measure the Python chunk loop"
        )
        base = _trace(chart, seed, _SINGLE_TICKS)
        masks = compiled.codec.encode_many([base], as_list=True)[0]
        chunks = [masks[start:start + _STREAM_CHUNK]
                  for start in range(0, len(masks), _STREAM_CHUNK)]

        def stream(engine):
            checker = StreamingChecker(compiled, engine=engine)
            for chunk in chunks:
                checker.push_encoded(chunk)
            return checker.report()

        expected, = run_many(compiled, [base])
        for engine in ("compiled", "native"):
            assert stream(engine).detections == expected.detections
        compiled_rate = _best_rate(lambda: stream("compiled"), len(masks))
        native_rate = _best_rate(lambda: stream("native"), len(masks))
        suite = {
            "ticks": len(masks),
            "chunk_ticks": _STREAM_CHUNK,
            "compiled_ticks_per_s": round(compiled_rate),
            "native_ticks_per_s": round(native_rate),
            "speedup": round(native_rate / compiled_rate, 2),
        }
        report(f"{name} single-stream chunked: {suite}")
        results[f"{name}_stream"] = suite
    _record(results)
    for name, suite in results.items():
        assert suite["speedup"] >= _MIN_STREAM_SPEEDUP, (
            f"{name}: native stream engine only {suite['speedup']:.2f}x "
            f"of the compiled chunk loop (gate {_MIN_STREAM_SPEEDUP}x)"
        )
