"""Tests for the online StreamingChecker (bounded memory, early exit)."""

import pytest

from repro import (
    AssertionChecker,
    CompiledEngine,
    MonitorEngine,
    StreamingChecker,
    Trace,
    TraceGenerator,
    run_monitor,
    synthesize_chart,
    tr,
    tr_compiled,
)
from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Alt, Implication
from repro.errors import MonitorError
from repro.monitor.checker import Verdict
from repro.protocols.faults import FaultCampaign
from repro.protocols.ocp import ocp_simple_read_chart


def _handshake():
    return (
        scesc("handshake").instances("M", "S")
        .tick(ev("req")).tick(ev("ack"))
        .arrow("done", cause="req", effect="ack")
        .build()
    )


def _implication():
    antecedent = (
        scesc("request").instances("M", "S").tick(ev("req")).build()
    )
    consequent = (
        scesc("response").instances("M", "S").tick(ev("ack")).build()
    )
    return Implication(antecedent, consequent, name="req_implies_ack")


# ------------------------------------------------------------- detectors ----
@pytest.mark.parametrize("engine", ["compiled", "interpreted"])
def test_streaming_detector_matches_batch(engine):
    chart = ocp_simple_read_chart()
    generator = TraceGenerator(chart, seed=7)
    monitor = tr(chart)
    for seed in range(6):
        trace = TraceGenerator(chart, seed=seed).satisfying_trace(
            prefix=seed % 3, suffix=2
        )
        batch = run_monitor(monitor, trace)
        report = StreamingChecker(chart, engine=engine).feed(trace)
        assert report.detections == batch.detections
        assert report.n_detections == len(batch.detections)
        assert report.ticks == trace.length
        assert not report.stopped_early


def test_streaming_accepts_monitor_bank_and_alt_chart():
    alt = Alt(
        (_handshake(),
         scesc("other").instances("M").tick(ev("x")).tick(ev("y")).build()),
        name="either",
    )
    bank = synthesize_chart(alt)
    trace = Trace.from_sets(
        [{"req"}, {"ack"}, {"x"}, {"y"}], {"req", "ack", "x", "y"}
    )
    expected = bank.run(trace).detections
    for spec in (alt, bank):
        report = StreamingChecker(spec).feed(trace)
        assert report.detections == expected


def test_streaming_accepts_raw_iterator():
    chart = _handshake()
    def stream():
        yield from Trace.from_sets(
            [{"req"}, {"ack"}], {"req", "ack"}
        )
    report = StreamingChecker(chart).feed(stream())
    assert report.detections == [1]


def test_stop_on_detection_aborts_ingest():
    chart = _handshake()
    valuations = list(Trace.from_sets(
        [{"req"}, {"ack"}, {"req"}, {"ack"}], {"req", "ack"}
    ))
    checker = StreamingChecker(chart, stop_on_detection=True)
    report = checker.feed(iter(valuations))
    assert report.stopped_early
    assert report.ticks == 2  # never read ticks 2..3
    assert report.detections == [1]


def test_push_after_stop_is_noop():
    chart = _handshake()
    checker = StreamingChecker(chart, stop_on_detection=True)
    trace = Trace.from_sets([{"req"}, {"ack"}], {"req", "ack"})
    checker.feed(trace)
    assert checker.stopped
    assert checker.push(trace[0]) is False
    assert checker.report().ticks == 2


def test_max_recorded_caps_lists_but_not_counts():
    chart = (
        scesc("always").instances("M").tick(ev("a")).build()
    )
    trace = Trace.from_sets([{"a"}] * 50, {"a"})
    report = StreamingChecker(chart, max_recorded=5).feed(trace)
    assert len(report.detections) == 5
    assert report.n_detections == 50


def test_streaming_engines_keep_no_history():
    chart = ocp_simple_read_chart()
    checker = StreamingChecker(chart, engine="compiled")
    trace = TraceGenerator(chart, seed=1).satisfying_trace(prefix=5, suffix=5)
    checker.feed(trace)
    for engine in checker._engines:
        assert len(engine._states) == 1          # no state history
        assert engine.transition_log == []       # no transition log
        assert engine._detections == []          # drained every tick


def test_history_free_engine_refuses_result():
    """result() on a record_history=False engine is an error, not
    silently wrong data (states/detections were never kept)."""
    monitor = tr(_handshake())
    trace = Trace.from_sets([{"req"}, {"ack"}], {"req", "ack"})
    for engine in (MonitorEngine(monitor, record_history=False),
                   CompiledEngine(monitor, record_history=False)):
        engine.feed(trace)
        assert engine.drain_detections() == [1]
        with pytest.raises(MonitorError, match="record_history"):
            engine.result()


# ----------------------------------------------------------- implications ----
def test_streaming_implication_matches_assertion_checker():
    implication = _implication()
    batch = AssertionChecker(implication)
    for sets in (
        [{"req"}, {"ack"}],                 # pass
        [{"req"}, set()],                   # fail
        [{"req"}, {"ack"}, {"req"}, set()], # pass then fail
        [set(), set()],                     # no obligation
        [{"req"}],                          # pending at end of trace
    ):
        trace = Trace.from_sets(sets, {"req", "ack"})
        report = batch.check(trace)
        stream = StreamingChecker(
            implication, stop_on_violation=False
        ).feed(trace)
        assert stream.n_violations == len(report.violations)
        assert stream.n_passes == len(report.passes)
        assert stream.n_pending == len(report.pending)
        assert stream.violations == [
            (o.start_tick, o.decided_tick) for o in report.violations
        ]
        assert stream.detections == report.antecedent_detections
        assert stream.ok == report.ok


def test_stop_on_violation_still_advances_sibling_obligations():
    """A violation must not swallow other live obligations' outcomes.

    Two overlapping obligations are live when the older one fails; the
    newer one matched the same tick and must still be counted PENDING
    (regression: it used to vanish from the report entirely).
    """
    antecedent = scesc("a").instances("M").tick(ev("req")).build()
    consequent = (
        scesc("c").instances("M").tick(ev("ack")).tick(ev("done")).build()
    )
    implication = Implication(antecedent, consequent, name="overlap")
    # req at 0 and 1 -> obligations start matching at 1 and 2.
    # Tick 2 reads {ack}: obligation 0 (expecting done) FAILS,
    # obligation 1 (expecting ack) matches and stays PENDING.
    trace = Trace.from_sets(
        [{"req"}, {"req", "ack"}, {"ack"}], {"req", "ack", "done"}
    )
    report = StreamingChecker(implication).feed(trace)
    assert report.stopped_early
    assert report.n_violations == 1
    assert report.violations == [(0, 2)]
    assert report.n_pending == 1
    batch = AssertionChecker(implication).check(trace)
    assert len(batch.violations) == 1
    assert len(batch.pending) == 1


def test_streaming_implication_stops_at_first_violation():
    implication = _implication()
    sets = [{"req"}, set(), {"req"}, {"ack"}]
    trace = Trace.from_sets(sets, {"req", "ack"})
    checker = StreamingChecker(implication)  # stop_on_violation default
    report = checker.feed(trace)
    assert report.stopped_early
    assert report.n_violations == 1
    assert report.violations == [(0, 1)]
    assert report.ticks == 2  # ticks 2..3 never read
    assert not report.ok


def test_interpreted_backend_accepts_compiled_monitor_via_source():
    import pickle

    from repro.runtime.compiled import compile_monitor

    chart = _handshake()
    compiled = compile_monitor(tr(chart))
    trace = Trace.from_sets([{"req"}, {"ack"}], {"req", "ack"})
    report = StreamingChecker(compiled, engine="interpreted").feed(trace)
    assert report.detections == [1]
    # Plain pickling keeps the source (on-disk compilation caches stay
    # fully capable)...
    assert pickle.loads(pickle.dumps(compiled)).source is not None
    # ...while a source-stripped copy (what sharded workers receive)
    # gives a clean error for interpreted stepping, not a crash.
    stripped = compiled.without_source()
    assert stripped.source is None
    with pytest.raises(MonitorError, match="no interpreted source"):
        StreamingChecker(stripped, engine="interpreted")
    # The compiled backend is unaffected.
    assert StreamingChecker(stripped).feed(trace).detections == [1]


# ---------------------------------------------------------------- errors ----
def test_unknown_backend_rejected():
    with pytest.raises(MonitorError):
        StreamingChecker(_handshake(), engine="quantum")


def test_negative_cap_rejected():
    with pytest.raises(MonitorError):
        StreamingChecker(_handshake(), max_recorded=-1)


def test_stop_on_detection_rejected_for_implications():
    with pytest.raises(MonitorError, match="stop_on_violation"):
        StreamingChecker(_implication(), stop_on_detection=True)


# ------------------------------------------------ batch-path edge cases ----
def test_empty_chunk_and_mask_batches_are_true_no_ops():
    chart = _handshake()
    checker = StreamingChecker(chart, engine="vector")
    assert checker.push_chunk([]) is True
    assert checker.push_masks([]) is True
    assert checker.ticks == 0 and checker.n_detections == 0
    # And they stay no-ops between real pushes, shifting no verdict tick.
    codec = tr_compiled(chart).codec
    trace = Trace.from_sets([{"req"}, {"ack"}, set(), {"req"}, {"ack"}],
                            codec.symbols)
    checker.push_chunk(list(trace)[:2])
    checker.push_chunk([])
    checker.push_masks([])
    checker.push_chunk(list(trace)[2:])
    reference = StreamingChecker(chart, engine="vector").feed(trace)
    assert checker.report().detections == reference.detections
    assert checker.ticks == trace.length


def test_pushes_after_stopped_are_refused_without_advancing():
    chart = _handshake()
    trace = Trace.from_sets([{"req"}, {"ack"}], {"req", "ack"})
    checker = StreamingChecker(chart, engine="vector",
                               stop_on_detection=True)
    checker.feed(trace)
    assert checker.stopped
    ticks_at_stop = checker.ticks
    assert checker.push(trace[0]) is False
    assert checker.push_chunk(list(trace)) is False
    assert checker.push_masks([1, 2]) is False
    assert checker.ticks == ticks_at_stop
    assert checker.n_detections == 1


@pytest.mark.parametrize("engine", ["auto", "compiled", "vector"])
def test_push_masks_rejects_masks_outside_the_alphabet(engine):
    """An out-of-range mask is a MonitorError naming it, raised before
    any tick is stepped (it used to escape as a bare IndexError, or
    step a wrong row when negative)."""
    compiled = tr_compiled(ocp_simple_read_chart())
    for bad, tick in (([1 << 28], 0), ([3, -1], 1)):
        checker = StreamingChecker(compiled, engine=engine)
        with pytest.raises(MonitorError,
                           match=f"mask {bad[tick]} at trace 0, tick "
                                 f"{tick} is outside 0..31"):
            checker.push_masks(bad)
        assert checker.ticks == 0


def test_interleaved_push_chunk_and_masks_match_batch():
    """One checker fed through all three entry points lands detections
    on exactly the ticks the one-shot batch run reports."""
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    trace = TraceGenerator(chart, seed=11).satisfying_trace(prefix=2,
                                                            suffix=1)
    doubled = trace.concat(trace)
    masks = [int(m) for m in compiled.codec.encode_many([doubled])[0]]
    valuations = list(doubled)
    reference = StreamingChecker(chart, engine="vector").feed(doubled)

    checker = StreamingChecker(chart, engine="vector")
    cursor = 0
    for index, stride in enumerate([3, 2, 4, 1, 5]):
        if cursor >= len(valuations):
            break
        window = slice(cursor, cursor + stride)
        if index % 3 == 0:
            checker.push_masks(masks[window])
        elif index % 3 == 1:
            checker.push_chunk(valuations[window])
        else:
            for valuation in valuations[window]:
                checker.push(valuation)
        cursor += stride
    checker.push_masks(masks[cursor:])
    report = checker.report()
    assert report.detections == reference.detections
    assert report.ticks == doubled.length
    assert report.n_detections == reference.n_detections


@pytest.mark.parametrize("split", [1, 2, 3, 5, 7])
def test_detection_ticks_identical_across_chunk_boundary_splits(split):
    """Chunk boundaries are invisible: wherever the stream is cut, the
    detection ticks equal the unchunked batch run's."""
    chart = ocp_simple_read_chart()
    trace = TraceGenerator(chart, seed=4).satisfying_trace(prefix=1,
                                                           suffix=1)
    doubled = trace.concat(trace)
    reference = StreamingChecker(chart, engine="vector").feed(doubled)
    valuations = list(doubled)
    checker = StreamingChecker(chart, engine="vector")
    for start in range(0, len(valuations), split):
        checker.push_chunk(valuations[start:start + split])
    assert checker.report().detections == reference.detections
    # Batch-path counters agree with the observer properties.
    assert checker.n_detections == reference.n_detections
    assert checker.ticks == doubled.length


def test_engine_observer_reports_backend():
    chart = _handshake()
    for engine in ("compiled", "interpreted", "vector"):
        assert StreamingChecker(chart, engine=engine).engine == engine
