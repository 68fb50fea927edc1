"""Trace-pipeline benchmarks: VCD ingestion, the columnar cache and
streaming.

* VCD ingestion throughput (ticks/second through ``VcdReader``);
* cold columnar ingest against the frozen per-change reader, and a
  warm cached corpus re-check against the uncached ``check --vcd``
  path (both gated);
* streaming vs batch checking on one long trace (identical verdicts,
  bounded memory).
"""

import functools
import os
import pathlib
import sys
import time

from repro import StreamingChecker, TraceGenerator, tr_compiled
from repro.cache import CorpusCache
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.compiled import run_compiled
from repro.runtime.engines import Workload, plan_execution
from repro.runtime.native import unavailable_reason
from repro.trace import VcdReader, trace_to_vcd
from repro.trace.columnar import (
    ColumnarTraceSet,
    check_masks,
    masks_from_vcd_text,
)

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_trace.json"

# The frozen per-change reader the VCD front-end replaced lives on as
# the test suites' reference sampler; the cold-ingest gate times it.
sys.path.insert(0, str(_REPO_ROOT / "tests" / "trace"))
from vcd_oracle import oracle_masks  # noqa: E402
from conftest import record_results  # noqa: E402

_LONG_TRACE_TICKS = 4000


#: Every top-level key this module records in BENCH_trace.json.
_RESULT_KEYS = frozenset({
    "batch_ticks_per_s", "columnar_ingest_speedup",
    "columnar_ingest_ticks_per_s", "columnar_warm_speedup",
    "columnar_warm_ticks_per_s", "stream_ticks_per_s",
    "vcd_ingest_ticks_per_s",
})
_record = functools.partial(record_results, _RESULTS_PATH, _RESULT_KEYS)


def _long_trace(ticks):
    generator = TraceGenerator(ocp_simple_read_chart(), seed=11)
    trace = generator.satisfying_trace(prefix=2, suffix=2)
    while trace.length < ticks:
        trace = trace.concat(
            generator.satisfying_trace(prefix=2, suffix=2)
        )
    return trace


def test_vcd_ingestion_throughput(report):
    trace = _long_trace(_LONG_TRACE_TICKS)
    text = trace_to_vcd(trace, clock="clk")
    best = None
    for _ in range(5):
        start = time.perf_counter()
        count = sum(
            1 for _ in VcdReader.from_text(text).valuations(clock="clk")
        )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    assert count == trace.length
    rate = count / best
    report(f"VCD ingestion: {count} ticks in {best * 1e3:.1f} ms "
           f"({rate / 1e3:.0f}k ticks/s)")
    _record({"vcd_ingest_ticks_per_s": round(rate)})


def test_columnar_ingest_throughput(report):
    """Cold columnar ingest: the block parser beats the per-change
    reader.

    The baseline is the sequential per-change tokenize, sample and
    encode pipeline the front-end replaced, kept frozen as
    ``tests/trace/vcd_oracle.py``; the conversion parses once, in
    process (the C block parser when a compiler is present).  Gated at
    >= 2x the baseline's rate on multi-core machines and 1.4x on a
    single core (the floors predate the in-process parse).  Masks are
    identical either way.
    """
    compiled = tr_compiled(ocp_simple_read_chart())
    codec = compiled.codec
    trace = _long_trace(_LONG_TRACE_TICKS)
    text = trace_to_vcd(trace, clock="clk")

    best_seq = None
    for _ in range(3):
        start = time.perf_counter()
        expected = oracle_masks(text, codec, clock="clk")
        elapsed = time.perf_counter() - start
        best_seq = elapsed if best_seq is None or elapsed < best_seq \
            else best_seq

    best_cold = None
    for _ in range(3):
        start = time.perf_counter()
        masks = masks_from_vcd_text(text, codec, clock="clk")
        elapsed = time.perf_counter() - start
        best_cold = elapsed if best_cold is None or elapsed < best_cold \
            else best_cold
    assert list(masks) == expected

    seq_rate = trace.length / best_seq
    cold_rate = trace.length / best_cold
    speedup = cold_rate / seq_rate
    report(f"columnar cold ingest: {trace.length} ticks in "
           f"{best_cold * 1e3:.1f} ms ({cold_rate / 1e3:.0f}k ticks/s, "
           f"{speedup:.1f}x the per-change parse+encode)")
    _record({
        "columnar_ingest_ticks_per_s": round(cold_rate),
        "columnar_ingest_speedup": round(speedup, 2),
    })
    floor = 2.0 if (os.cpu_count() or 1) > 1 else 1.4
    assert speedup >= floor, (
        f"cold columnar ingest only {speedup:.2f}x the per-change "
        f"reader (promised >= {floor}x)"
    )


_WARM_TRACES = 512
_WARM_PAD = 200


def _best_of(runs, fn):
    """``(best wall seconds, last result)`` over ``runs`` calls."""
    best = result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, result


def test_columnar_warm_throughput(report, tmp_path):
    """Warm cached re-check against the uncached check, both as shipped.

    The baseline is what an uncached ``repro check --vcd`` runs per
    dump: ``VcdReader.masks`` and ``columnar.check_masks``.  The warm
    leg is what the serve ``corpus`` op runs: one ``.rtrc`` load, the
    planner's pick for the whole batch, and its encoded runner.  Both
    legs run once untimed first, so native builds (or SO-cache
    lookups) stay out of the timings, and both take the best of five.
    Gated at >= 10x the baseline and >= 5M ticks/s with the native
    stepper; without a C compiler the floor is 3x.
    """
    compiled = tr_compiled(ocp_simple_read_chart())
    codec = compiled.codec
    paths = []
    for seed in range(_WARM_TRACES):
        generator = TraceGenerator(ocp_simple_read_chart(), seed=seed)
        trace = generator.satisfying_trace(prefix=_WARM_PAD,
                                           suffix=_WARM_PAD)
        path = tmp_path / f"dump{seed}.vcd"
        path.write_text(trace_to_vcd(trace, clock="clk"))
        paths.append(path)

    def uncached():
        masks, reports = [], []
        for path in paths:
            with VcdReader(path) as reader:
                masks.append(reader.masks(codec, clock="clk"))
            reports.append(check_masks(compiled, masks[-1]))
        return masks, reports

    expected, _ = uncached()
    seq_s, (_, reports) = _best_of(5, uncached)
    total_ticks = sum(map(len, expected))

    cache = CorpusCache(tmp_path / "cache")
    corpus = ColumnarTraceSet.from_mask_arrays(
        expected, symbols=codec.symbols, meta={"clock": "clk"}
    )
    corpus_path = cache.store_bytes("warm-corpus", corpus.to_bytes())

    def warm():
        lanes = ColumnarTraceSet.load(corpus_path).mask_arrays()
        plan = plan_execution(compiled, Workload.from_traces(lanes))
        return plan.engine, plan.encoded_runner()(compiled, lanes)

    warm()
    best_warm, (engine, results) = _best_of(5, warm)
    assert [r.detections for r in results] == \
        [r.detections for r in reports]

    seq_rate = total_ticks / seq_s
    warm_rate = total_ticks / best_warm
    speedup = warm_rate / seq_rate
    report(f"columnar warm re-check: {len(paths)} traces / "
           f"{total_ticks} ticks in {best_warm * 1e3:.1f} ms on {engine} "
           f"({warm_rate / 1e6:.1f}M ticks/s, {speedup:.1f}x the "
           f"uncached check's {seq_s * 1e3:.1f} ms)")
    _record({
        "columnar_warm_ticks_per_s": round(warm_rate),
        "columnar_warm_speedup": round(speedup, 1),
    })
    native = unavailable_reason() is None
    floor = 10.0 if native else 3.0
    assert speedup >= floor, (
        f"warm cached re-check only {speedup:.1f}x the uncached check "
        f"(promised >= {floor}x)"
    )
    if native:
        assert warm_rate >= 5e6, (
            f"warm cached re-check at {warm_rate / 1e6:.2f}M ticks/s "
            f"(promised >= 5M ticks/s with the native stepper)"
        )


def test_streaming_matches_batch_on_long_trace(report):
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    trace = _long_trace(_LONG_TRACE_TICKS)

    start = time.perf_counter()
    batch = run_compiled(compiled, trace)
    batch_s = time.perf_counter() - start

    checker = StreamingChecker(compiled)
    start = time.perf_counter()
    stream = checker.feed(trace)
    stream_s = time.perf_counter() - start

    assert stream.detections == batch.detections
    assert len(checker._engines[0]._states) == 1  # O(1) memory per tick
    report(f"long trace ({trace.length} ticks): batch {batch_s * 1e3:.1f} ms, "
           f"streaming {stream_s * 1e3:.1f} ms, "
           f"{stream.n_detections} detections")
    _record({
        "stream_ticks_per_s": round(trace.length / stream_s),
        "batch_ticks_per_s": round(trace.length / batch_s),
    })
