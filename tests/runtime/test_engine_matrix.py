"""Capability matrix: every backend against every entry point.

For each registered backend and each execution entry point — per-tick
bank stepping, batches, streaming checks, the serving layer, cached
corpus checks — the run either
produces verdicts and tick counts identical to the interpreted
reference, or raises the registry's uniform capability error with the
exact wording and the entry point's own error subclass.  Every case
runs with NumPy loaded in the process (``numpy``, where it is
installed) and with it unimportable (``fallback``): the product has no
NumPy path, so both must answer alike, and where a case hands masks to
a runner the ``numpy`` mode hands NumPy arrays too.

This file also pins the README engines table to
:func:`repro.runtime.engines.engines_markdown_table` so the docs
cannot drift from the registry.
"""

import asyncio
import json
import os
import sys
from array import array

import pytest

from repro.cesc.builder import ev, scesc
from repro.errors import (
    MonitorError,
    ServeError,
    SynthesisError,
    TraceError,
)
from repro.monitor.checker import AssertionChecker
from repro.monitor.engine import run_monitor
from repro.protocols.fixtures import ocp_simple_vcd
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.engines import (
    AUTO,
    EngineBackend,
    Workload,
    backend,
    backend_names,
    engine_choices,
    engines_markdown_table,
    plan_execution,
    register_backend,
    require_backend,
)
from repro.semantics.generator import TraceGenerator
from repro.serve import MonitorService, ServeConfig
from repro.synthesis.compose import synthesize_chart
from repro.synthesis.tr import tr_compiled
from repro.trace.columnar import check_vcd_cached
from repro.trace.streaming import StreamingChecker


def _chart():
    return ocp_simple_read_chart()


def _traces(count=6):
    chart = _chart()
    traces = []
    for seed in range(count):
        generator = TraceGenerator(chart, seed=seed)
        if seed % 3 == 2:
            traces.append(generator.random_trace(5 + seed))
        else:
            traces.append(generator.satisfying_trace(
                prefix=seed % 2, suffix=seed % 3))
    return traces


def _reference(traces):
    chart = _chart()
    bank = synthesize_chart(chart)
    monitors = [monitor for _, monitor in bank.members]
    return [
        [run_monitor(monitor, trace) for monitor in monitors]
        for trace in traces
    ]


def _assert_bank_identity(results, reference):
    for bank_result, expected in zip(results, reference):
        for member, ref in zip(bank_result.results, expected):
            assert member.detections == ref.detections
            assert member.ticks == ref.ticks
            assert member.accepted == ref.accepted


def _native_or_skip():
    """Skip a native identity cell when the host has no C compiler.

    Capability-error cells never need the compiler — the registry
    raises before any build — so only identity cells call this.
    """
    reason = backend("native").unavailable_reason()
    if reason is not None:
        pytest.skip(f"native backend unavailable: {reason}")


# ----------------------------------------------------------- the matrix ----
def test_registry_shape_is_the_documented_matrix():
    """The capability matrix itself: flags per registered backend."""
    assert backend_names() == ("interpreted", "compiled", "vector",
                               "native")
    matrix = {
        name: {
            flag: getattr(backend(name), flag)
            for flag in ("wants_compiled", "step", "batch", "streaming",
                         "two_phase")
        }
        for name in backend_names()
    }
    assert matrix == {
        "interpreted": {"wants_compiled": False, "step": True,
                        "batch": False, "streaming": True,
                        "two_phase": True},
        "compiled": {"wants_compiled": True, "step": True, "batch": True,
                     "streaming": True, "two_phase": True},
        "vector": {"wants_compiled": True, "step": False, "batch": True,
                   "streaming": False, "two_phase": False},
        "native": {"wants_compiled": True, "step": False, "batch": True,
                   "streaming": True, "two_phase": False},
    }


@pytest.mark.parametrize("engine", ["interpreted", "compiled", "vector",
                                    "native", AUTO])
def test_bank_run_per_tick(engine, numpy_mode):
    traces = _traces(3)
    bank = synthesize_chart(_chart())
    reference = _reference(traces)
    if not (engine == AUTO or backend(engine).step):
        with pytest.raises(SynthesisError) as caught:
            bank.run(traces[0], engine=engine)
        assert str(caught.value) == (
            f"engine {engine!r} does not support per-tick stepping "
            "(choose from: auto, interpreted, compiled)"
        )
        return
    results = [bank.run(trace, engine=engine) for trace in traces]
    _assert_bank_identity(results, reference)


@pytest.mark.parametrize("engine", ["interpreted", "compiled", "vector",
                                    "native", AUTO])
def test_bank_run_batch(engine, numpy_mode):
    traces = _traces()
    bank = synthesize_chart(_chart())
    reference = _reference(traces)
    if not (engine == AUTO or backend(engine).batch):
        with pytest.raises(SynthesisError) as caught:
            bank.run_batch(traces, engine=engine)
        assert str(caught.value) == (
            f"engine {engine!r} does not support batch execution "
            "(choose from: auto, compiled, vector, native)"
        )
        return
    if engine == "native":
        _native_or_skip()
    _assert_bank_identity(bank.run_batch(traces, engine=engine), reference)


@pytest.mark.parametrize("engine", ["interpreted", "compiled", "vector",
                                    "native", AUTO])
def test_streaming_checker(engine, numpy_mode):
    traces = _traces(3)
    chart = _chart()
    if not (engine == AUTO or backend(engine).streaming):
        with pytest.raises(MonitorError) as caught:
            StreamingChecker(chart, engine=engine)
        assert str(caught.value) == (
            f"engine {engine!r} does not support streaming checks "
            "(choose from: auto, interpreted, compiled, native)"
        )
        return
    if engine == "native":
        _native_or_skip()
    for trace in traces:
        expected = run_monitor(
            synthesize_chart(chart).members[0][1], trace)
        checker = StreamingChecker(chart, engine=engine)
        for valuation in trace:
            checker.push(valuation)
        report = checker.report()
        assert report.detections == expected.detections
        assert report.ticks == expected.ticks
        # auto resolves to a concrete registered name, never "auto".
        assert checker.engine in backend_names("streaming")


@pytest.mark.parametrize("engine", ["interpreted", "compiled", "vector",
                                    "native", AUTO])
def test_serve_streaming_per_open_override(engine, numpy_mode):
    chart = _chart()
    trace = TraceGenerator(chart, seed=4).satisfying_trace(suffix=1)
    expected = run_monitor(synthesize_chart(chart).members[0][1], trace)
    streams = engine == AUTO or backend(engine).streaming
    if streams and engine == "native":
        _native_or_skip()

    async def scenario():
        service = MonitorService({"ocp": chart}, ServeConfig(port=0))
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                async def rpc(message):
                    writer.write(json.dumps(message).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                opened = await rpc({"op": "open", "stream": "s",
                                    "engine": engine})
                if not opened["ok"]:
                    return opened, None
                ticks = [sorted(v.true) for v in trace]
                ack = await rpc({"op": "push", "stream": "s",
                                 "ticks": ticks})
                assert ack["ok"], ack
                closed = await rpc({"op": "close", "stream": "s"})
                return opened, closed
            finally:
                writer.close()
        finally:
            await service.aclose()

    opened, closed = asyncio.run(scenario())
    if not streams:
        # Per-open validation answers with the registry's wording.
        assert not opened["ok"]
        assert opened["error"] == (
            f"engine {engine!r} does not support streaming checks "
            "(choose from: auto, interpreted, compiled, native)"
        )
        return
    assert opened["ok"], opened
    # The service echoes the resolved backend, never the sentinel.
    assert opened["engine"] in backend_names("streaming")
    if engine != AUTO:
        assert opened["engine"] == engine
    report = closed["report"]
    assert report["detections"] == expected.detections
    assert report["ticks"] == expected.ticks


@pytest.mark.parametrize("engine", ["interpreted", "compiled", "vector",
                                    "native", AUTO])
def test_check_vcd_cached_corpus(engine, numpy_mode, tmp_path):
    compiled = tr_compiled(_chart())
    paths = []
    for seed in (3, 5):
        path = tmp_path / f"ocp{seed}.vcd"
        path.write_text(ocp_simple_vcd(seed=seed, repeats=2))
        paths.append(str(path))
    cache_root = str(tmp_path / "cache")
    if not (engine == AUTO or backend(engine).batch):
        with pytest.raises(TraceError) as caught:
            check_vcd_cached(compiled, paths, cache_root, clock="clk",
                             engine=engine)
        assert str(caught.value) == (
            f"engine {engine!r} does not support batch execution "
            "(choose from: auto, compiled, vector, native)"
        )
        return
    if engine == "native":
        _native_or_skip()
    results = check_vcd_cached(compiled, paths, cache_root, clock="clk",
                               engine=engine)
    reference = check_vcd_cached(compiled, paths, cache_root, clock="clk",
                                 engine="compiled")
    for result, expected in zip(results, reference):
        assert result.detections == expected.detections
        assert result.ticks == expected.ticks
        assert result.accepted == expected.accepted


def test_run_sharded_vcd_cache_path_accepts_batch_only_backends(
        numpy_mode, tmp_path):
    """``run_sharded_vcd`` feeds the *batch* kernels with or without a
    cache, so a batch-only backend (native) checks a dump on both
    paths with the compiled engine's verdicts."""
    from repro.trace.shard import run_sharded_vcd

    _native_or_skip()
    compiled = tr_compiled(_chart())
    path = tmp_path / "ocp.vcd"
    path.write_text(ocp_simple_vcd(seed=3, repeats=2))
    cache_root = str(tmp_path / "cache")
    results = run_sharded_vcd(compiled, [str(path)], clock="clk",
                              cache=cache_root, engine="native")
    reference = run_sharded_vcd(compiled, [str(path)], clock="clk",
                                cache=cache_root, engine="compiled")
    for result, expected in zip(results, reference):
        assert result.detections == expected.detections
        assert result.ticks == expected.ticks
    uncached = run_sharded_vcd(compiled, [str(path)], clock="clk",
                               engine="native")
    uncached_reference = run_sharded_vcd(compiled, [str(path)],
                                         clock="clk", engine="compiled")
    for result, expected in zip(uncached, uncached_reference):
        assert result.detections == expected.detections
        assert result.ticks == expected.ticks


# ------------------------------------------- mask domain at the runners ----
@pytest.mark.parametrize("engine", ["compiled", "vector", "native"])
@pytest.mark.parametrize("bad", [1 << 28, 1 << 5, -1, 1 << 40,
                                 (1 << 32) + 3])
def test_encoded_runners_reject_out_of_range_masks(engine, bad,
                                                   numpy_mode):
    """A mask outside ``[0, 2^|Sigma|)`` is a MonitorError naming the
    lane, tick and mask on every batch backend (regression: native
    read past its table — ``1 << 28`` crashed the process and
    ``2^|Sigma|`` read another state's row — while compiled and vector
    raised a bare IndexError).  Native skips the domain pre-scan, so
    this also pins its other traps: a list mask beyond int32 (which
    ``array('i')`` refuses with OverflowError) and an int64 array whose
    value would wrap into range as int32 (``(1 << 32) + 3`` is 3)."""
    if engine == "native":
        _native_or_skip()
    compiled = tr_compiled(_chart())
    assert compiled.codec.size == 1 << 5  # the OCP chart's 5 symbols
    runner = backend(engine).encoded_runner()
    np = numpy_mode
    # Two lanes, and one lane (the width every uncached check --vcd
    # runs at).
    for lanes, lane in (([[0, 1, 2], [3, bad, bad]], 1), ([[3, bad]], 0)):
        batches = [lanes]
        if -(1 << 31) <= bad < 1 << 31:  # the .rtrc load form
            batches.append([array("i", masks) for masks in lanes])
        if np is not None:
            if -(1 << 31) <= bad < 1 << 31:
                batches.append([np.array(masks, dtype="int32")
                                for masks in lanes])
            batches.append([np.array(masks, dtype="int64")
                            for masks in lanes])
        for batch in batches:
            with pytest.raises(MonitorError) as caught:
                runner(compiled, batch)
            assert str(caught.value) == (
                f"monitor {compiled.name!r}: mask {bad} at trace {lane}, "
                f"tick 1 is outside 0..31 "
                f"(alphabet {list(compiled.codec.symbols)})"
            )


@pytest.mark.parametrize("engine", ["compiled", "vector", "native"])
def test_trace_batch_runners_skip_the_mask_domain_check(
        engine, numpy_mode, monkeypatch):
    """Masks encoded from traces are in range by construction, so the
    trace-fed batch runners never pay the range check (only the
    encoded entry points take untrusted masks)."""
    from repro.runtime import compiled as compiled_module
    from repro.runtime import native as native_module
    from repro.synthesis.tr import tr

    if engine == "native":
        _native_or_skip()

    def refuse(*_):
        raise AssertionError("range check on trace-encoded masks")

    for module in (compiled_module, native_module):
        monkeypatch.setattr(module, "check_mask_domain", refuse)
    traces = _traces()
    compiled = tr_compiled(_chart())
    results = backend(engine).batch_runner()(compiled, traces)
    expected = [run_monitor(tr(_chart()), trace) for trace in traces]
    assert [r.detections for r in results] == \
        [r.detections for r in expected]


def test_single_lane_vector_batch_runs_the_scalar_loop(numpy_mode):
    """``vector`` is a batch-only alias: its runners are ``compiled``'s,
    so a width-1 batch (an explicit ``check --vcd --engine vector``)
    steps through the scalar loop with the compiled engine's
    results."""
    from repro.runtime.compiled import run_many, run_many_encoded

    alias = backend("vector")
    assert alias.encoded_runner() is run_many_encoded
    assert alias.batch_runner() is run_many
    compiled = tr_compiled(_chart())
    lanes = compiled.codec.encode_many(_traces(1))
    result, = alias.encoded_runner()(compiled, lanes)
    expected, = backend("compiled").encoded_runner()(compiled, lanes)
    assert result.states == expected.states
    assert result.detections == expected.detections


def test_vector_batch_without_numpy_runs_the_scalar_loop(monkeypatch):
    """With NumPy unimportable, a 256-lane ``vector`` batch steps
    through the scalar loop once, with the compiled engine's
    results."""
    from repro.runtime import compiled as compiled_module

    scalar_runs = []
    scalar_loop = compiled_module._run_many_encoded

    def counted(*args, **kwargs):
        scalar_runs.append(len(args[1]))
        return scalar_loop(*args, **kwargs)

    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(compiled_module, "_run_many_encoded", counted)
    compiled = tr_compiled(_chart())
    traces = _traces()
    lanes = compiled.codec.encode_many(
        [traces[index % len(traces)] for index in range(256)])
    results = backend("vector").encoded_runner()(compiled, lanes)
    assert scalar_runs == [256]
    expected = scalar_loop(compiled, lanes)
    assert [r.states for r in results] == [r.states for r in expected]
    assert [r.detections for r in results] == \
        [r.detections for r in expected]


# ----------------------------------------- uniform errors, every seam ----
# One template everywhere; the choice list names exactly the engines
# valid at the raising entry point.
# The streaming seams (StreamingChecker, ServeConfig) validate against
# the streaming capability, so their choice list omits `vector`.
_UNKNOWN_FULL = ("unknown engine 'bogus' "
                 "(choose from: auto, interpreted, compiled, native)")
_UNKNOWN_STEP = ("unknown engine 'bogus' "
                 "(choose from: auto, interpreted, compiled)")
_UNKNOWN_BATCH = ("unknown engine 'bogus' "
                  "(choose from: auto, compiled, vector, native)")


def test_unknown_engine_message_is_identical_everywhere():
    chart = _chart()
    trace = _traces(1)[0]
    compiled = tr_compiled(chart)
    bank = synthesize_chart(chart)

    with pytest.raises(MonitorError, match="unknown engine") as streaming:
        StreamingChecker(chart, engine="bogus")
    assert str(streaming.value) == _UNKNOWN_FULL

    from repro.cesc.charts import Implication

    antecedent = (scesc("ab").instances("M")
                  .tick(ev("a")).tick(ev("b")).build())
    consequent = (scesc("cd").instances("M")
                  .tick(ev("c")).tick(ev("d")).build())
    with pytest.raises(MonitorError) as checker:
        AssertionChecker(Implication(antecedent, consequent),
                         engine="bogus")
    assert str(checker.value) == _UNKNOWN_STEP

    with pytest.raises(SynthesisError) as step:
        bank.run(trace, engine="bogus")
    assert str(step.value) == _UNKNOWN_STEP

    with pytest.raises(SynthesisError) as batch:
        bank.run_batch([trace], engine="bogus")
    assert str(batch.value) == _UNKNOWN_BATCH

    with pytest.raises(TraceError) as cached:
        check_vcd_cached(compiled, [], "unused-cache", engine="bogus")
    assert str(cached.value) == _UNKNOWN_BATCH

    with pytest.raises(ServeError) as serve:
        ServeConfig(engine="bogus")
    assert str(serve.value) == _UNKNOWN_FULL


def test_serve_rejects_unknown_per_open_engine():
    chart = _chart()

    async def scenario():
        service = MonitorService({"ocp": chart}, ServeConfig(port=0))
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(json.dumps(
                    {"op": "open", "stream": "s", "engine": "bogus"}
                ).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                writer.close()
        finally:
            await service.aclose()

    answer = asyncio.run(scenario())
    assert not answer["ok"]
    assert answer["error"] == _UNKNOWN_FULL


def test_two_phase_capability_error_from_network():
    from repro.cesc.ast import Clock, EventRefInChart
    from repro.cesc.charts import AsyncPar, CrossArrow
    from repro.semantics.run import GlobalRun, Trace
    from repro.synthesis.multiclock import synthesize_network

    m1 = (scesc("M1", clock=Clock("clk1", period=10)).instances("A")
          .tick(ev("req")).tick(ev("data")).build())
    m2 = (scesc("M2", clock=Clock("clk2", period=7)).instances("B")
          .tick(ev("req3")).tick(ev("data3")).build())
    arrow = CrossArrow("e4", "M1", EventRefInChart(0, "req"), "M2",
                       EventRefInChart(0, "req3"))
    network = synthesize_network(AsyncPar([m1, m2], cross_arrows=[arrow]))
    t1 = Trace.from_sets([{"req"}, {"data"}],
                         alphabet={"req", "data"})
    t2 = Trace.from_sets([set(), {"req3"}, {"data3"}],
                         alphabet={"req3", "data3"})
    run = GlobalRun.merge({m1.clock: t1, m2.clock: t2})
    with pytest.raises(MonitorError) as caught:
        network.run(run, engine="vector")
    assert str(caught.value) == (
        "engine 'vector' does not support two-phase network stepping "
        "(choose from: auto, interpreted, compiled)"
    )
    # The same run steps identically on both two-phase backends.
    by_engine = {name: network.run(run, engine=name)
                 for name in backend_names("two_phase")}
    assert (by_engine["interpreted"].detections
            == by_engine["compiled"].detections)
    assert (by_engine["interpreted"].accepted
            is by_engine["compiled"].accepted)


# --------------------------------------------------- planner behaviour ----
@pytest.mark.parametrize("cc", ["cc_visible", "cc_hidden"])
def test_auto_plan_follows_the_two_rules(cc, numpy_mode, monkeypatch):
    """``auto`` is native whenever it can be built, else compiled —
    pinned at w1, w32 and w256, with the reason each rule gives."""
    if cc == "cc_hidden":
        monkeypatch.setenv("REPRO_NO_CC", "1")
    else:
        monkeypatch.delenv("REPRO_NO_CC", raising=False)
        _native_or_skip()
    compiled = tr_compiled(_chart())
    plans = [plan_execution(compiled, Workload(width, width * 12))
             for width in (1, 32, 256)]
    if cc == "cc_visible":
        expected = ("native",
                    "auto: a C compiler is present and the table lowers "
                    "to C")
    else:
        expected = ("compiled", "auto: no native stepper")
    assert {(plan.engine, plan.reason) for plan in plans} == {expected}


def test_native_availability_gates_planner_and_explicit_use(monkeypatch):
    """REPRO_NO_CC vetoes native: the planner falls back silently,
    explicit selection gets the uniform unavailability error, and
    capability errors still take precedence over availability."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    compiled = tr_compiled(_chart())
    single = plan_execution(compiled, Workload(1, 12))
    assert single.engine == "compiled"
    narrow = plan_execution(compiled, Workload(32, 32 * 12))
    assert narrow.engine == "compiled"
    with pytest.raises(MonitorError) as caught:
        plan_execution(compiled, Workload(1, 12), engine="native")
    assert str(caught.value) == (
        "engine 'native' is unavailable: REPRO_NO_CC is set "
        "(choose from: auto, compiled, vector, native)"
    )
    with pytest.raises(MonitorError) as caught:
        require_backend("native", "step")
    assert str(caught.value) == (
        "engine 'native' does not support per-tick stepping "
        "(choose from: auto, interpreted, compiled)"
    )


def test_registry_rejects_duplicates_and_the_sentinel():
    with pytest.raises(MonitorError, match="already registered"):
        register_backend(backend("compiled"))
    with pytest.raises(MonitorError, match="planner sentinel"):
        register_backend(EngineBackend(AUTO, "-", "-",
                                       wants_compiled=True))
    # replace=True is the accelerator seam: swapping implementations
    # under an existing name must keep the registry intact.
    register_backend(backend("compiled"), replace=True)
    assert backend_names() == ("interpreted", "compiled", "vector",
                               "native")


def test_engine_choices_per_capability():
    assert engine_choices() == ("auto", "interpreted", "compiled",
                                "vector", "native")
    assert engine_choices("batch") == ("auto", "compiled", "vector",
                                       "native")
    assert engine_choices("step") == ("auto", "interpreted", "compiled")
    assert engine_choices("streaming") == ("auto", "interpreted",
                                           "compiled", "native")
    assert engine_choices("wants_compiled") == ("auto", "compiled",
                                                "vector", "native")


def test_require_backend_returns_the_registered_descriptor():
    assert require_backend("vector", "batch") is backend("vector")
    assert require_backend("interpreted", "streaming").wants_compiled \
        is False


# ------------------------------------------------------- documentation ----
def test_readme_engines_table_matches_the_registry():
    """README's engines table is generated output — it cannot drift."""
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as stream:
        readme = stream.read()
    begin = "<!-- engines-table:begin -->\n"
    end = "<!-- engines-table:end -->"
    assert begin in readme and end in readme, (
        "README.md must keep the engines-table markers"
    )
    block = readme.split(begin, 1)[1].split(end, 1)[0]
    assert block == engines_markdown_table(), (
        "README engines table drifted from the registry; regenerate "
        "with: python tools/gen_engines_table.py"
    )
