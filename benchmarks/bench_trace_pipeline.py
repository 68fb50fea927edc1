"""Trace-pipeline benchmarks: VCD ingestion, streaming, and sharding.

Measures the three stages the pipeline adds over PR-1's lock-step
batch runtime:

* VCD ingestion throughput (ticks/second through ``VcdReader``);
* streaming vs batch checking on one long trace (identical verdicts,
  bounded memory);
* sharded vs single-process batch on many traces, recording the
  speedup per worker count in ``BENCH_trace.json``.

Sharding wins are hardware-dependent (CI runners may expose two
cores), so correctness is asserted hard and throughput is recorded,
not gated.
"""

import json
import os
import pathlib
import sys
import time

from repro import StreamingChecker, TraceGenerator, tr_compiled
from repro.cache import CorpusCache
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.vector import run_many_vector_encoded
from repro.runtime.compiled import run_compiled, run_many
from repro.trace import VcdReader, run_sharded, trace_to_vcd
from repro.trace.columnar import ColumnarTraceSet, masks_from_vcd_text

try:
    import numpy as _np
except ImportError:
    _np = None

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_trace.json"

# The frozen per-change reader the VCD front-end replaced lives on as
# the test suites' reference sampler; the cold-ingest gate times it.
sys.path.insert(0, str(_REPO_ROOT / "tests" / "trace"))
from vcd_oracle import oracle_masks  # noqa: E402

_LONG_TRACE_TICKS = 4000
_BATCH_TRACES = 48
_BATCH_TICKS = 6000


def _record(results):
    existing = {}
    if _RESULTS_PATH.exists():
        try:
            existing = json.loads(_RESULTS_PATH.read_text())
        except (ValueError, OSError):
            existing = {}
    existing.update(results)
    _RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n"
    )


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
    """Cold columnar ingest: the delta parser beats the per-change
    reader.

    The baseline is the sequential per-change tokenize, sample and
    encode pipeline the front-end replaced, kept frozen as
    ``tests/trace/vcd_oracle.py``.  Gated at >= 2x its rate on
    multi-core machines (CI runners: lean tokenizer + chunk-parallel
    fan-out); a single-core box only clears the tokenizer's own win,
    so the floor there is 1.4x.  Masks are identical either way.
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
        masks = masks_from_vcd_text(text, codec, clock="clk", jobs=4)
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


def test_columnar_warm_throughput(report, tmp_path):
    """Warm cached re-check: one .rtrc corpus load + lockstep verdicts.

    The warm path re-checks a cached campaign corpus: load the single
    ``.rtrc``, hand the pre-encoded lanes straight to the trace-parallel
    vector kernel.  Gated at >= 10x the sequential parse-and-encode
    rate under NumPy (and >= 5M ticks/s absolute); the pure-Python
    fallback only clears the parse saving itself, so its floor is 3x.
    """
    compiled = tr_compiled(ocp_simple_read_chart())
    codec = compiled.codec
    traces = []
    for seed in range(_WARM_TRACES):
        generator = TraceGenerator(ocp_simple_read_chart(), seed=seed)
        traces.append(generator.satisfying_trace(
            prefix=_WARM_PAD, suffix=_WARM_PAD
        ))
    texts = [trace_to_vcd(trace, clock="clk") for trace in traces]
    total_ticks = sum(trace.length for trace in traces)

    start = time.perf_counter()
    expected = [
        [codec.encode(v)
         for v in VcdReader.from_text(text).valuations(clock="clk")]
        for text in texts
    ]
    seq_s = time.perf_counter() - start
    baseline = run_many_vector_encoded(compiled, expected)

    cache = CorpusCache(tmp_path / "cache")
    corpus = ColumnarTraceSet.from_mask_arrays(
        expected, symbols=codec.symbols, meta={"clock": "clk"}
    )
    path = cache.store_bytes("warm-corpus", corpus.to_bytes())

    best_warm = None
    for _ in range(5):
        start = time.perf_counter()
        warm_set = ColumnarTraceSet.load(path)
        results = run_many_vector_encoded(
            compiled, warm_set.mask_arrays()
        )
        elapsed = time.perf_counter() - start
        best_warm = elapsed if best_warm is None or elapsed < best_warm \
            else best_warm
    assert [r.detections for r in results] == \
        [r.detections for r in baseline]

    seq_rate = total_ticks / seq_s
    warm_rate = total_ticks / best_warm
    speedup = warm_rate / seq_rate
    report(f"columnar warm re-check: {len(traces)} traces / "
           f"{total_ticks} ticks in {best_warm * 1e3:.1f} ms "
           f"({warm_rate / 1e6:.1f}M ticks/s, "
           f"{speedup:.0f}x sequential parse+encode)")
    _record({
        "columnar_warm_ticks_per_s": round(warm_rate),
        "columnar_warm_speedup": round(speedup, 1),
    })
    floor = 10.0 if _np is not None else 3.0
    assert speedup >= floor, (
        f"warm cached re-check only {speedup:.1f}x the sequential "
        f"reader (promised >= {floor}x)"
    )
    if _np is not None:
        assert warm_rate >= 5e6, (
            f"warm cached re-check at {warm_rate / 1e6:.2f}M ticks/s "
            f"(promised >= 5M ticks/s under NumPy)"
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


def test_sharded_vs_lockstep_batch(report):
    """Sharded fan-out vs lock-step, and shm vs pickled handoff.

    Workers are forced real (``oversubscribe=True``) so the measurement
    is a genuine cross-process one everywhere.  The headline
    ``shard_speedup_jobs4`` is *gated* only where the hardware can
    deliver it: >= 2.5x with four or more available cores, >= 1.3x with
    two or three.  A single-core runner cannot speed anything up by
    adding processes — there the numbers are recorded for the ratio
    between the two handoff paths, not asserted.
    """
    from repro.trace import shard
    from repro.trace.shard import available_cores

    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    base = _long_trace(_BATCH_TICKS)
    traces = [base for _ in range(_BATCH_TRACES)]

    def best_of(runs, fn):
        best = result = None
        for _ in range(runs):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
        return best, result

    single_s, lockstep = best_of(3, lambda: run_many(compiled, traces))

    timings = {}
    for jobs in (2, 4):
        # Warm the exact-size pool first: spawning workers is a one-time
        # cost campaign loops amortise, not part of the steady state.
        # At least ``jobs`` traces, or the chunker caps the pool below
        # the size the timed run asks for.
        run_sharded(compiled, traces[:jobs], jobs=jobs, oversubscribe=True)
        timings[jobs], sharded = best_of(3, lambda: run_sharded(
            compiled, traces, jobs=jobs, oversubscribe=True))
        assert [r.detections for r in sharded] == [
            r.detections for r in lockstep
        ]

    # Same fan-out with shared memory masked: every task ships its mask
    # arrays pickled, the path the shm handoff replaced.
    saved_shm = shard._shared_memory
    shard._shared_memory = None
    try:
        pickle_s, pickled = best_of(3, lambda: run_sharded(
            compiled, traces, jobs=4, oversubscribe=True))
    finally:
        shard._shared_memory = saved_shm
    assert [r.detections for r in pickled] == [
        r.detections for r in lockstep
    ]

    total_ticks = sum(len(t) for t in traces)
    cores = available_cores()
    speedup = single_s / timings[4]
    report(f"batch of {len(traces)} traces ({total_ticks} ticks, "
           f"{cores} core(s)): single {single_s * 1e3:.1f} ms, "
           + ", ".join(f"jobs={j} {s * 1e3:.1f} ms"
                       for j, s in timings.items())
           + f"; jobs=4 pickled handoff {pickle_s * 1e3:.1f} ms")
    _record({
        "shard_cores": cores,
        "shard_single_s": round(single_s, 4),
        **{f"shard_jobs{j}_s": round(s, 4) for j, s in timings.items()},
        "shard_jobs4_pickle_s": round(pickle_s, 4),
        "shard_shm_speedup": round(pickle_s / timings[4], 2),
        "shard_speedup_jobs4": round(speedup, 2),
    })
    if cores >= 4:
        floor = 2.5
    elif cores >= 2:
        floor = 1.3
    else:
        return  # one core: nothing to gain from more processes
    assert speedup >= floor, (
        f"sharded jobs=4 at {speedup:.2f}x the lock-step batch on "
        f"{cores} cores (promised >= {floor}x)"
    )
