"""The one chunked streaming path, pinned against per-tick stepping.

A detector stream on a table backend consumes every pushed chunk in
one ``feed_masks`` call per engine: one C call from a state kept
between calls on ``native``, one flat-table loop on ``compiled``.
Whatever the chunk size, and with or without ``stop_on_detection``,
the report must equal the interpreted engine's fed one valuation at a
time; an anomaly inside a chunk must raise the compiled engine's error
and leave the engine where per-tick stepping leaves it.
"""

from array import array

import pytest

from repro.errors import MonitorError, ScoreboardError
from repro.logic.expr import EventRef, Not
from repro.logic.valuation import Valuation
from repro.monitor.automaton import AddEvt, DelEvt, Monitor, Transition
from repro.protocols.ocp import ocp_burst_read_chart
from repro.runtime.compiled import CompiledEngine, compile_monitor
from repro.semantics.generator import TraceGenerator
from repro.serve.protocol import MAX_TICKS_PER_PUSH, ticks_to_masks
from repro.synthesis.symbolic import symbolic_monitor
from repro.synthesis.tr import tr, tr_compiled
from repro.trace.streaming import StreamingChecker

CHUNK_SIZES = (1, 2, 7, 255, 256, 500, MAX_TICKS_PER_PUSH)
STREAM_TICKS = 1200


def _stream(diff_harness, which):
    """The chart's trace mix, concatenated to a stream of at least
    ``STREAM_TICKS`` ticks, as wire ticks (sorted true-symbol lists)."""
    chart = diff_harness.chart(which)
    traces = diff_harness.traces(chart, 15, seed=7)
    ticks = []
    while len(ticks) < STREAM_TICKS:
        for trace in traces:
            ticks.extend(sorted(valuation.true) for valuation in trace)
    return chart, ticks


def _report_tuple(report):
    return (report.detections, report.ticks, report.n_detections,
            report.stopped_early)


def _reference(monitor, ticks, stop):
    checker = StreamingChecker(monitor, engine="interpreted",
                               stop_on_detection=stop)
    for tick in ticks:
        if not checker.push(Valuation(tick)):
            break
    return _report_tuple(checker.report())


def _chunks(items, size):
    return [items[start:start + size]
            for start in range(0, len(items), size)]


@pytest.mark.parametrize("engine", ["compiled", "native"])
@pytest.mark.parametrize("which", ["ocp_simple", "ocp_burst", "amba_ahb",
                                   "random_a", "random_b", "random_c"])
def test_chunk_size_differential(which, engine, diff_harness):
    """push_masks, push_chunk and the serve encoder, at every chunk
    size, report what the interpreted engine reports tick by tick."""
    if engine not in diff_harness.stream_engines():
        pytest.skip("native backend unavailable")
    chart, ticks = _stream(diff_harness, which)
    monitor = tr(chart)
    compiled = tr_compiled(chart)
    masks = [compiled.codec.encode(Valuation(tick)) for tick in ticks]
    for stop in (False, True):
        expected = _reference(monitor, ticks, stop)
        if not stop:
            assert expected[2] > 0, "the stream must detect something"
        for size in CHUNK_SIZES:
            feeds = {}
            by_masks = StreamingChecker(compiled, engine=engine,
                                        stop_on_detection=stop)
            for chunk in _chunks(masks, size):
                by_masks.push_masks(chunk)
            feeds["push_masks"] = by_masks
            by_chunk = StreamingChecker(compiled, engine=engine,
                                        stop_on_detection=stop)
            for chunk in _chunks(ticks, size):
                by_chunk.push_chunk([Valuation(tick) for tick in chunk])
            feeds["push_chunk"] = by_chunk
            by_wire = StreamingChecker(compiled, engine=engine,
                                       stop_on_detection=stop)
            for chunk in _chunks(ticks, size):
                by_wire.push_encoded(ticks_to_masks(chunk, by_wire.codec))
            feeds["serve encoder"] = by_wire
            for path, checker in feeds.items():
                assert _report_tuple(checker.report()) == expected, (
                    path, size, stop)


# ------------------------------------------------ anomalies in a chunk ----
def _incomplete():
    """``a`` detects; the final state has no way out (a missing cell)."""
    return compile_monitor(Monitor(
        "incomplete", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, EventRef("a"), (), 1),
            Transition(0, Not(EventRef("a")), (), 0),
        ],
        alphabet={"a"},
    ))


def _deleting():
    """``b`` adds ``x`` and detects; ``a`` deletes ``x`` unchecked, so a
    second ``a`` under-runs the strict scoreboard."""
    a, b = EventRef("a"), EventRef("b")
    return compile_monitor(Monitor(
        "deleting", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, b & Not(a), (AddEvt("x"),), 1),
            Transition(0, Not(b) & Not(a), (), 0),
            Transition(0, a, (DelEvt("x"),), 0),
            Transition(1, Not(a), (), 0),
            Transition(1, a, (DelEvt("x"),), 0),
        ],
        alphabet={"a", "b"},
    ))


ANOMALIES = {
    # name: (compiled monitor, chunk, failing tick, error class)
    "missing cell": (_incomplete(), [0, 0, 0, 1, 0, 1], 4, MonitorError),
    "Del_evt under-run": (_deleting(), [0, 2, 2, 1, 1, 0], 4,
                          ScoreboardError),
    "mask outside the alphabet": (_deleting(), [2, 0, 1 << 2, 0], 2,
                                  MonitorError),
    "mask beyond int32": (_deleting(), [2, 0, 1 << 40, 0], 2,
                          MonitorError),
}


def _per_tick(compiled, chunk, failing):
    """Where per-tick stepping leaves an engine at the failing tick."""
    engine = CompiledEngine(compiled, record_history=False)
    for mask in chunk[:failing]:
        engine.step_mask(mask)
    return engine.state, engine.tick, engine.scoreboard.snapshot()


@pytest.mark.parametrize("name", sorted(ANOMALIES))
def test_anomaly_inside_a_chunk(name, diff_harness):
    """Native raises compiled's exact error and stops where per-tick
    stepping stops: state, tick and scoreboard."""
    if "native" not in diff_harness.stream_engines():
        pytest.skip("native backend unavailable")
    from repro.runtime.native import NativeEngine, native_kernel

    compiled, chunk, failing, error_cls = ANOMALIES[name]
    assert native_kernel(compiled) is not None, "the chunk must hit C"
    outcomes = []
    for cls in (CompiledEngine, NativeEngine):
        engine = cls(compiled, record_history=False)
        # A clean chunk first, so the failing one starts from a state
        # the stepper carried over.
        assert engine.feed_masks([0]) == []
        with pytest.raises(error_cls) as caught:
            engine.feed_masks(chunk)
        outcomes.append((type(caught.value), str(caught.value),
                         engine.state, engine.tick - 1,
                         engine.scoreboard.snapshot()))
    assert outcomes[0] == outcomes[1]
    state, tick, board = _per_tick(compiled, [0] + chunk, failing + 1)
    assert outcomes[1][2:] == (state, tick - 1, board)
    # A stream's report counts what per-tick pushing counts before the
    # raise: the ticks and detections before the failing tick.
    reports = []
    for engine in ("compiled", "native", "per tick"):
        checker = StreamingChecker(
            compiled, engine="compiled" if engine == "per tick" else engine)
        pushes = [[mask] for mask in [0] + chunk] if engine == "per tick" \
            else [[0], chunk]
        with pytest.raises(error_cls):
            for masks in pushes:
                checker.push_encoded(masks)
        reports.append((checker.ticks, checker.report().detections))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][0] == failing + 1
    if name == "mask outside the alphabet":
        assert outcomes[1][1] == (
            "monitor 'deleting': mask 4 at trace 0, tick 2 is outside "
            "0..3 (alphabet ['a', 'b'])")


def test_stop_ends_the_chunk_at_the_first_detection(diff_harness):
    """``stop`` returns right after the first detecting tick: the
    anomaly after it is never reached, and the tick count stops
    there."""
    from repro.runtime.engines import backend

    compiled = _incomplete()
    for engine_name in diff_harness.stream_engines():
        engine = backend(engine_name).make_engine(
            compiled, record_history=False)
        assert engine.feed_masks([0, 1, 0, 0], stop=True) == [1]
        assert engine.tick == 2 and engine.state == 1


# ------------------------------------------- the stream entry, direct ----
def _entry(compiled):
    from repro.runtime.native import _addr, native_kernel

    kernel = native_kernel(compiled)
    assert kernel is not None

    def call(masks, io, stop=0):
        masks = array("i", masks)
        found = array("i", bytes(4 * max(1, len(masks))))
        out = array("q", bytes(16))
        status = kernel.stream(_addr(masks), len(masks), _addr(io), stop,
                               _addr(found), _addr(out))
        return status, found[:out[0]].tolist(), out[1]

    return kernel, call


def test_stream_entry_refuses_a_mask_beyond_size(diff_harness):
    if "native" not in diff_harness.stream_engines():
        pytest.skip("native backend unavailable")
    compiled = _deleting()
    kernel, call = _entry(compiled)
    size = compiled.codec.size
    assert kernel.events == ("x",)
    io = array("i", [0, 0])
    for bad in (size, size + 5, -1):
        status, _, _ = call([2, 0, bad], io)
        assert status == 1
        assert io.tolist() == [0, 0]
    # The same chunk in range steps and writes the state back.
    assert call([2, 0, size - 1], io) == (0, [0], 3)
    assert io.tolist() == [0, 0]
    assert call([2], io) == (0, [0], 1)
    assert io.tolist() == [1, 1]


def test_stream_entry_refuses_a_count_leaving_int32(diff_harness):
    if "native" not in diff_harness.stream_engines():
        pytest.skip("native backend unavailable")
    int32_max = (1 << 31) - 1
    kernel, call = _entry(_deleting())
    io = array("i", [0, int32_max])
    # b adds x: INT32_MAX + 1 is an anomaly, never a wrapped count.
    assert call([0, 2], io)[0] == 1
    assert io.tolist() == [0, int32_max]
    # a deletes x: the count stays in range and the call succeeds.
    assert call([1], io) == (0, [], 1)
    assert io.tolist() == [0, int32_max - 1]
    assert call([2], io) == (0, [0], 1)
    assert io.tolist() == [1, int32_max]


def test_native_engine_replays_a_count_beyond_int32_in_python(
        diff_harness):
    """The engine never wraps a count: past ``INT32_MAX`` the chunk
    replays in Python and later chunks step there while the count
    cannot fit the C buffer."""
    if "native" not in diff_harness.stream_engines():
        pytest.skip("native backend unavailable")
    from repro.runtime.native import NativeEngine

    int32_max = (1 << 31) - 1
    compiled = _deleting()
    native = NativeEngine(compiled, record_history=False)
    scalar = CompiledEngine(compiled, record_history=False)
    for engine in (native, scalar):
        engine.scoreboard.restore({"x": int32_max})
        assert engine.feed_masks([2, 0, 2]) == [0, 2]
        assert engine.feed_masks([1, 1, 2]) == [2]
    assert native.scoreboard.snapshot() == scalar.scoreboard.snapshot() \
        == {"x": int32_max + 1}
    assert (native.state, native.tick) == (scalar.state, scalar.tick)


# ------------------------------------- bounded memory: no scoreboard log ----
@pytest.mark.parametrize("engine", ["interpreted", "compiled", "native"])
def test_streaming_scoreboards_keep_no_operation_log(engine, diff_harness):
    """A 100k-tick OCP burst stream adds and deletes scoreboard events
    all along; the streaming engine's scoreboard keeps its counts and
    no log of the operations."""
    if engine not in ("interpreted",) + diff_harness.stream_engines():
        pytest.skip("native backend unavailable")
    chart = ocp_burst_read_chart()
    generator = TraceGenerator(chart, seed=3)
    block = []
    for _ in range(40):
        block.extend(generator.satisfying_trace(prefix=1, suffix=1))
    valuations = (block * (100_000 // len(block) + 1))[:100_000]
    # The interpreted engine steps the guard-compressed monitor: the
    # dense Tr output walks 512 guards a tick.
    monitor = (symbolic_monitor(tr(chart)) if engine == "interpreted"
               else tr_compiled(chart))
    checker = StreamingChecker(monitor, engine=engine)
    report = checker.feed(valuations)
    assert report.ticks == 100_000 and report.n_detections > 1000
    for member in checker._engines:
        assert member.scoreboard.history() == []
