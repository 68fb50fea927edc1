"""Vector-kernel benchmarks: trace-parallel batch throughput.

Measures the vectorized batch kernel (:mod:`repro.runtime.vector`)
against the scalar compiled lock-step on identical workloads:

* a **check-free** chain chart — pure gather dispatch, the kernel's
  best case and the CI-gated one (vector must beat the scalar batch by
  >= 1.5x at the wide batch width; locally it measures ~4-5x, ~9x
  against ``BENCH_runtime.json``'s recorded ``batch_32x`` rate);
* the scoreboard-heavy **OCP simple read** and **AMBA AHB** suites —
  65-75% of their cells are ladders/action steps, all resolved inside
  the predicated kernels; the CI gates assert the post-predication
  residual stays under 10% (``residual_ratio``) and the wide-width
  speedup over scalar batch stays >= 2x;
* the **encode-once** micro-bench — a bank of N monitors over one
  trace list hits the shared mask-array cache N-1 times per trace, so
  banks pay the per-tick encode loop once, not per member.

All throughput numbers are *lane-ticks per second* (total ticks across
the batch / wall time), recorded in ``BENCH_vector.json``.  Verdict
identity is asserted hard on every workload before timing.
"""

import json
import pathlib
import time

from repro import TraceGenerator
from repro.cesc.charts import ScescChart
from repro.logic import codec as codec_module
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.compiled import run_many, run_many_encoded
from repro.runtime.vector import (
    _np,
    run_many_vector,
    run_many_vector_encoded,
    vector_table,
)
from repro.synthesis.compose import synthesize_chart
from repro.synthesis.tr import tr_compiled

from bench_scaling import _chain_chart

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_vector.json"
_RUNTIME_PATH = _REPO_ROOT / "BENCH_runtime.json"

#: Batch widths: the historical 32-lane shape and the wide shape the
#: kernel is built for (per-tick array overhead amortized over lanes).
_WIDTHS = (32, 256)
_TRACE_TICKS = 200
_REPEATS = 5
#: CI gate: at the wide width, vector must beat scalar batch by this
#: factor on the check-free fixture.
_MIN_CHECKFREE_SPEEDUP = 1.5
#: CI gates for the scoreboard-heavy protocol suites: the predicated
#: kernels must leave under 10% of cells on the scalar escape path and
#: keep the wide-width speedup over scalar batch.
_MAX_SUITE_RESIDUAL = 0.10
_MIN_SUITE_SPEEDUP = 2.0


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


def _runtime_batch32x_rate():
    """BENCH_runtime.json's recorded compiled batch throughput."""
    try:
        recorded = json.loads(_RUNTIME_PATH.read_text())["batch_32x"]
        return recorded["ticks"] / recorded["compiled_s"]
    except (OSError, ValueError, KeyError, ZeroDivisionError):
        return None


def _best_rate(fn, total_ticks, repeats=_REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return total_ticks / best


def _bench_chart(chart, seed):
    """Kernel throughput per batch width, scalar vs vector.

    Both kernels run over *pre-encoded* mask arrays — the state every
    production batch path reaches before stepping (banks encode once
    per distinct alphabet, sharded workers receive parent-encoded
    arrays) — so the numbers compare the stepping loops, not the
    shared per-trace encode cost.
    """
    compiled = tr_compiled(chart)
    generator = TraceGenerator(ScescChart(chart), seed=seed)
    base = generator.satisfying_trace(
        prefix=_TRACE_TICKS // 2, suffix=_TRACE_TICKS // 2
    )
    table = vector_table(compiled)
    results = {
        "escape_ratio": round(table.escape_ratio, 3),
        "residual_ratio": round(table.residual_ratio, 3),
        "numpy": _np is not None,
    }
    for width in _WIDTHS:
        batch = [base] * width
        total = sum(len(trace) for trace in batch)
        scalar = run_many(compiled, batch)
        vectorized = run_many_vector(compiled, batch)
        for left, right in zip(scalar, vectorized):
            assert left.detections == right.detections
            assert left.states == right.states
        mask_lists = compiled.codec.encode_many(batch, as_list=True)
        mask_arrays = compiled.codec.encode_many(batch)
        compiled_rate = _best_rate(
            lambda: run_many_encoded(compiled, mask_lists), total
        )
        vector_rate = _best_rate(
            lambda: run_many_vector_encoded(compiled, mask_arrays), total
        )
        results[f"compiled_ticks_per_s_w{width}"] = round(compiled_rate)
        results[f"vector_ticks_per_s_w{width}"] = round(vector_rate)
        results[f"speedup_w{width}"] = round(vector_rate / compiled_rate, 2)
    return results


def test_vector_checkfree_throughput(report):
    chart = _chain_chart(12)
    results = _bench_chart(chart, seed=4)
    baseline = _runtime_batch32x_rate()
    if baseline:
        results["vs_runtime_batch32x"] = round(
            results[f"vector_ticks_per_s_w{_WIDTHS[-1]}"] / baseline, 2
        )
    report(f"check-free chain12: {results}")
    _record({"checkfree_chain12": results})
    wide = results[f"speedup_w{_WIDTHS[-1]}"]
    assert wide >= _MIN_CHECKFREE_SPEEDUP, (
        f"vector batch only {wide:.2f}x of scalar compiled on the "
        f"check-free fixture (gate {_MIN_CHECKFREE_SPEEDUP}x)"
    )


def test_vector_scoreboard_suites_throughput(report):
    results = {}
    for name, build, seed in (
        ("ocp_simple_read", ocp_simple_read_chart, 7),
        ("ahb_transaction", ahb_transaction_chart, 9),
    ):
        results[name] = _bench_chart(build(), seed=seed)
        report(f"{name}: {results[name]}")
    _record(results)
    for name, suite in results.items():
        residual = suite["residual_ratio"]
        assert residual < _MAX_SUITE_RESIDUAL, (
            f"{name}: {residual:.1%} of cells still resolve escapes on "
            f"the scalar path post-predication "
            f"(gate {_MAX_SUITE_RESIDUAL:.0%})"
        )
        wide = suite[f"speedup_w{_WIDTHS[-1]}"]
        assert wide >= _MIN_SUITE_SPEEDUP, (
            f"{name}: predicated kernel only {wide:.2f}x of scalar "
            f"compiled batch (gate {_MIN_SUITE_SPEEDUP}x)"
        )


def test_auto_small_width_leg(report, monkeypatch):
    """``engine="auto"`` tracks the best explicit backend per width.

    On the scoreboard-heavy OCP suite the planner must pick the native
    stepper at both widths when a C compiler is present; with
    ``REPRO_NO_CC`` hiding it, the scalar compiled loop at w32 and
    (under NumPy) the vector kernel at w256.  Each leg's auto rate
    must stay within 10% of the best explicit backend available in
    that leg — native included when visible — so planning costs a few
    memoized attribute reads, not throughput.
    """
    from repro.runtime.engines import (
        AUTO,
        VECTOR_WIDE_WIDTH,
        Workload,
        backend,
        plan_execution,
    )
    from repro.runtime.native import native_kernel, run_many_native_encoded

    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    generator = TraceGenerator(ScescChart(chart), seed=7)
    base = generator.satisfying_trace(
        prefix=_TRACE_TICKS // 2, suffix=_TRACE_TICKS // 2
    )
    results = {"numpy": _np is not None}
    for leg in ("with_cc", "no_cc"):
        if leg == "with_cc":
            monkeypatch.delenv("REPRO_NO_CC", raising=False)
        else:
            monkeypatch.setenv("REPRO_NO_CC", "1")
        native_ready = backend("native").unavailable_reason() is None
        if native_ready:
            native_kernel(compiled)  # the one-off compile, untimed
        for width in _WIDTHS:
            batch = [base] * width
            total = sum(len(trace) for trace in batch)
            mask_lists = compiled.codec.encode_many(batch, as_list=True)
            mask_arrays = compiled.codec.encode_many(batch)

            plan = plan_execution(compiled, Workload.from_traces(batch))
            if native_ready:
                expected = "native"
            elif _np is not None and width >= VECTOR_WIDE_WIDTH:
                expected = "vector"
            else:
                expected = "compiled"
            assert plan.engine == expected, (
                f"{leg}: auto planned {plan.engine!r} at w{width} "
                f"({plan.reason}); expected {expected!r}"
            )
            results[f"{leg}_auto_engine_w{width}"] = plan.engine

            def run_auto():
                # Re-plan inside the timed region: auto's honest cost.
                live = plan_execution(compiled, Workload.from_traces(batch),
                                      AUTO)
                masks = (mask_arrays if live.backend.buffer_masks()
                         else mask_lists)
                live.encoded_runner()(compiled, masks)

            # Interleave the timing rounds (rather than back-to-back
            # _best_rate loops) so machine noise hits every contender
            # alike, and rotate the order each round so no contender
            # systematically runs with the cache another one just
            # thrashed — the gate compares rates against each other.
            contenders = [
                ("compiled", lambda: run_many_encoded(compiled, mask_lists)),
                ("vector", lambda: run_many_vector_encoded(
                    compiled, mask_arrays)),
            ]
            if native_ready:
                contenders.append(("native", lambda: run_many_native_encoded(
                    compiled, mask_lists)))
            contenders.append(("auto", run_auto))
            for _, fn in contenders:  # one untimed warmup cycle
                fn()
            elapsed = {name: None for name, _ in contenders}
            for round_index in range(6 * _REPEATS):
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
                results[f"{leg}_{name}_ticks_per_s_w{width}"] = round(rate)
            ratio = rates["auto"] / best
            results[f"{leg}_auto_vs_best_w{width}"] = round(ratio, 3)
            assert ratio >= 0.9, (
                f"{leg}: auto only {ratio:.2f}x of the best explicit "
                f"backend at w{width} (gate 0.9x; planned {plan.engine!r})"
            )
    report(f"auto small-width leg: {results}")
    _record({"auto_small_width": results})


def test_bank_encode_once_microbench(report):
    """N monitors over one trace list: each trace encodes exactly once."""
    from repro.cesc.builder import ev, scesc
    from repro.cesc.charts import Alt, ScescChart

    # An Alt of same-alphabet alternatives: the bank has N members but
    # one distinct codec, so the whole batch encodes once per trace.
    left = scesc("left").instances("M").tick(ev("p")).tick(ev("q")).build()
    right = scesc("right").instances("M").tick(ev("q")).tick(ev("p")).build()
    bank = synthesize_chart(Alt([ScescChart(left), ScescChart(right)]))
    members = bank.compiled_members()
    assert len(members) >= 2
    generator = TraceGenerator(ScescChart(left), seed=13)
    traces = [generator.satisfying_trace(prefix=2, suffix=2)
              for _ in range(64)]
    codec_module.clear_trace_cache()
    start = time.perf_counter()
    bank.run_batch(traces)
    cold_s = time.perf_counter() - start
    stats = codec_module.trace_cache_info()
    distinct = len({member.codec.symbols for member in members})
    assert stats["misses"] == len(traces) * distinct
    start = time.perf_counter()
    bank.run_batch(traces)
    warm_s = time.perf_counter() - start
    warm_stats = codec_module.trace_cache_info()
    assert warm_stats["misses"] == stats["misses"]  # all hits
    results = {
        "members": len(members),
        "distinct_alphabets": distinct,
        "traces": len(traces),
        "encode_misses": stats["misses"],
        "cold_batch_s": round(cold_s, 4),
        "warm_batch_s": round(warm_s, 4),
    }
    report(f"encode-once: {results}")
    _record({"bank_encode_once": results})
