"""Differential suite: every batch backend on the vector-kernel cases.

The NumPy gather kernel these cases were written for is gone; the
``vector`` name survives as a batch-only alias of ``compiled``'s
runners.  Each case now runs through every batch backend available
here — ``compiled``, the ``vector`` alias and, with a C compiler,
``native`` — and asserts tick-identical detections, state histories
and tick counts against the interpreted reference, and byte-identical
errors against ``run_many``.  Every case runs with NumPy loaded in the
process (``numpy``, where it is installed) and with it unimportable
(``fallback``): neither may change an answer.

Coverage: AMBA/OCP protocol charts (``tr_compiled`` direct emission
*and* ``compile_monitor`` lowering, whose ladders use full-scan
semantics), random CESC charts, the multiclock network's local
monitors, an all-ladder monitor (100% escape density), empty traces,
injected scoreboards and bank batches.  The streaming
cases run on the table backends that stream (``compiled``, and
``native`` with a C compiler).
"""

import random

import pytest

from repro import StreamingChecker, Trace, TraceGenerator
from repro.cesc.builder import ev, scesc
from repro.cesc.charts import ScescChart
from repro.logic.expr import EventRef, Not, ScoreboardCheck, TRUE
from repro.monitor.automaton import AddEvt, DelEvt, Monitor, Transition
from repro.monitor.engine import run_monitor
from repro.monitor.scoreboard import Scoreboard
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.runtime.compiled import compile_monitor, run_many
from repro.runtime.engines import backend
from repro.runtime.lowering import vector_table
from repro.synthesis.compose import synthesize_chart
from repro.synthesis.tr import tr, tr_compiled


def _engines():
    """The batch backends that run here besides ``compiled``."""
    return [name for name in ("vector", "native")
            if backend(name).unavailable_reason() is None]


def _runners():
    return [backend(name).batch_runner() for name in _engines()]


def _random_chart(seed: int):
    rng = random.Random(seed)
    n_ticks = rng.randint(2, 4)
    builder = scesc(f"vec_fuzz_{seed}").instances("A", "B")
    events_by_tick = []
    for tick in range(n_ticks):
        names = [f"e{tick}_{i}" for i in range(rng.randint(1, 2))]
        events_by_tick.append(names)
        builder = builder.tick(*[ev(name) for name in names])
    for arrow in range(rng.randint(0, 2)):
        cause_tick = rng.randrange(n_ticks - 1)
        effect_tick = rng.randrange(cause_tick + 1, n_ticks)
        builder = builder.arrow(
            f"arr{arrow}",
            cause=rng.choice(events_by_tick[cause_tick]),
            effect=rng.choice(events_by_tick[effect_tick]),
        )
    return builder.build()


def _traces(chart, count, seed, include_empty=True):
    generator = TraceGenerator(ScescChart(chart), seed=seed)
    traces = []
    for index in range(count):
        kind = index % 3
        if kind == 0:
            traces.append(generator.satisfying_trace(
                prefix=index % 3, suffix=(index // 3) % 3
            ))
        elif kind == 1:
            traces.append(generator.random_trace(4 + index % 20))
        else:
            traces.append(generator.violating_window())
    if include_empty:
        traces.append(Trace([], chart.alphabet()))
    return traces


def _assert_identical(monitor, compiled, traces):
    reference = [run_monitor(monitor, trace) for trace in traces]
    for runner in [run_many] + _runners():
        results = runner(compiled, traces)
        assert len(results) == len(reference)
        for ref, got in zip(reference, results):
            assert ref.detections == got.detections
            assert ref.states == got.states
            assert ref.ticks == got.ticks


CHARTS = {
    "ocp_simple": ocp_simple_read_chart,
    "ocp_burst": ocp_burst_read_chart,
    "amba_ahb": ahb_transaction_chart,
    "random_a": lambda: _random_chart(11),
    "random_b": lambda: _random_chart(57),
    "random_c": lambda: _random_chart(301),
}


@pytest.mark.parametrize("which", sorted(CHARTS))
def test_vector_matches_compiled_and_interpreted(which, numpy_mode):
    chart = CHARTS[which]()
    monitor = tr(chart)
    # Direct emission (exclusive first-match ladders).
    _assert_identical(monitor, tr_compiled(chart),
                      _traces(chart, 18, seed=3))
    # Guard lowering (full-scan ladders, non-exclusive semantics).
    _assert_identical(monitor, compile_monitor(monitor),
                      _traces(chart, 12, seed=5))


def test_vector_multiclock_local_monitors(numpy_mode):
    from repro.protocols.readproto import multiclock_read_chart
    from repro.synthesis.multiclock import synthesize_network

    chart = multiclock_read_chart()
    network = synthesize_network(chart)
    generator = TraceGenerator(chart, seed=9)
    run = generator.global_run(chart, cycles=6, satisfy=True)
    for local in network.locals:
        projected = run.project(local.clock.name)
        traces = [projected] + [
            Trace(projected.valuations[:length], projected.alphabet)
            for length in (0, 1, len(projected) // 2)
        ]
        _assert_identical(local.monitor, compile_monitor(local.monitor),
                          traces)


def _all_ladder_monitor() -> Monitor:
    """Every cell of every state is a check ladder: 100% escape."""
    return Monitor(
        "all_ladder", n_states=3, initial=0, final=2,
        transitions=[
            Transition(0, Not(ScoreboardCheck("x")), (AddEvt("x"),), 1),
            Transition(0, ScoreboardCheck("x"), (), 0),
            Transition(1, ScoreboardCheck("x") & EventRef("go"),
                       (DelEvt("x"),), 2),
            Transition(1, ScoreboardCheck("x") & Not(EventRef("go")),
                       (), 1),
            Transition(1, Not(ScoreboardCheck("x")), (), 0),
            Transition(2, Not(ScoreboardCheck("x")), (AddEvt("x"),), 1),
            Transition(2, ScoreboardCheck("x"), (), 2),
        ],
        alphabet={"go", "noise"},
    )


def test_vector_all_ladder_monitor(numpy_mode):
    monitor = _all_ladder_monitor()
    compiled = compile_monitor(monitor)
    assert vector_table(compiled).escape_ratio == 1.0
    rng = random.Random(17)
    traces = [
        Trace.from_sets(
            [
                {s for s in ("go", "noise") if rng.random() < 0.5}
                for _ in range(length)
            ],
            alphabet={"go", "noise"},
        )
        for length in (0, 1, 5, 12, 30)
    ]
    _assert_identical(monitor, compiled, traces)


def test_vector_empty_batch_and_empty_traces(numpy_mode):
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    empties = [Trace([], chart.alphabet()) for _ in range(3)]
    for runner in _runners():
        assert runner(compiled, []) == []
        results = runner(compiled, empties)
        assert [r.detections for r in results] == [[], [], []]
        assert [r.states for r in results] == [[compiled.initial]] * 3
        assert [r.ticks for r in results] == [0, 0, 0]


def test_vector_injected_scoreboards_mutate_identically(numpy_mode):
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    traces = _traces(chart, 6, seed=21, include_empty=False)
    left = [Scoreboard() for _ in traces]
    scalar = run_many(compiled, traces, scoreboards=left)
    for runner in _runners():
        right = [Scoreboard() for _ in traces]
        results = runner(compiled, traces, scoreboards=right)
        assert ([r.detections for r in scalar]
                == [r.detections for r in results])
        assert ([b.snapshot() for b in left]
                == [b.snapshot() for b in right])


def test_vector_record_transitions_delegates_to_scalar(numpy_mode):
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    traces = _traces(chart, 4, seed=31, include_empty=False)
    scalar = run_many(compiled, traces, record_transitions=True)
    for runner in _runners():
        results = runner(compiled, traces, record_transitions=True)
        assert ([r.transitions for r in scalar]
                == [r.transitions for r in results])


def test_vector_bank_batch_matches(numpy_mode):
    chart = ocp_simple_read_chart()
    bank = synthesize_chart(chart)
    traces = _traces(chart, 8, seed=51, include_empty=False)
    compiled_results = bank.run_batch(traces, engine="compiled")
    for engine in _engines():
        results = bank.run_batch(traces, engine=engine)
        assert ([r.detections for r in compiled_results]
                == [r.detections for r in results])


def test_streaming_vector_chunked_push(numpy_mode, diff_harness):
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    generator = TraceGenerator(chart, seed=61)
    trace = generator.satisfying_trace(prefix=3, suffix=4)
    for _ in range(4):
        trace = trace.concat(generator.satisfying_trace(prefix=2, suffix=3))
    reference = StreamingChecker(compiled, stop_on_detection=False).feed(trace)
    ref_stop = StreamingChecker(compiled, stop_on_detection=True).feed(trace)
    for engine in diff_harness.stream_engines():
        # A chunk size that does not divide the trace length exercises
        # the partial-final-chunk path.
        chunked = StreamingChecker(
            compiled, engine=engine, stop_on_detection=False, chunk_ticks=7
        ).feed(trace)
        assert chunked.detections == reference.detections
        assert chunked.ticks == reference.ticks
        # stop_on_detection truncates at the first detecting tick.
        vec_stop = StreamingChecker(
            compiled, engine=engine, stop_on_detection=True, chunk_ticks=7
        ).feed(trace)
        assert vec_stop.detections == ref_stop.detections
        assert vec_stop.ticks == ref_stop.ticks
        assert vec_stop.stopped_early == ref_stop.stopped_early


def test_vector_strict_del_raises_after_same_transition_add(numpy_mode):
    """A Del_evt under-run must raise even when the same transition's
    earlier Add already touched the counts (the replayed scoreboard is
    the pre-transition state, not the half-applied one)."""
    from repro.errors import ScoreboardError

    monitor = Monitor(
        "underrun", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, EventRef("a") & Not(ScoreboardCheck("x")),
                       (AddEvt("x"), DelEvt("y")), 1),
            Transition(0, EventRef("a") & ScoreboardCheck("x"), (), 0),
            Transition(0, Not(EventRef("a")), (), 0),
            Transition(1, TRUE, (), 1),
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    trace = [Trace.from_sets([{"a"}], alphabet={"a"})]
    for runner in [run_many] + _runners():
        with pytest.raises(ScoreboardError, match="Del_evt\\(y\\)"):
            runner(compiled, trace)


def test_vector_multi_failing_lanes_surface_the_same_error(numpy_mode):
    """When several lanes fail at the same tick, every batch backend
    raises the *lowest trace index* lane's error, exactly as
    run_many's index-ordered loop does (regression: the NumPy kernel's
    grouped escape resolver surfaced whichever cell group it processed
    first)."""
    from repro.errors import ScoreboardError

    monitor = Monitor(
        "multi", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, ScoreboardCheck("x"), (), 1),
            Transition(0, Not(ScoreboardCheck("x")) & Not(EventRef("a")),
                       (AddEvt("x"), DelEvt("y")), 0),
            # 'a' high with x unset: no enabled transition at all
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    traces = [
        Trace.from_sets([set(), set(), set()], alphabet={"a"}),  # Del_evt(y)
        Trace.from_sets([set(), set()], alphabet={"a"}),
        Trace.from_sets([{"a"}], alphabet={"a"}),  # missing cell
    ]
    outcomes = []
    for runner in [run_many] + _runners():
        try:
            runner(compiled, traces)
            outcomes.append("no error")
        except Exception as error:  # noqa: BLE001 - comparing identity
            outcomes.append(f"{type(error).__name__}: {error}")
    assert len(set(outcomes)) == 1, outcomes
    assert outcomes[0].startswith("ScoreboardError")


def test_streaming_vector_stop_on_detection_never_looks_ahead(
        numpy_mode, diff_harness):
    """stop_on_detection must not step ticks past the stopping one —
    an incomplete monitor erroring there would raise in a chunk that
    looked ahead but not in per-tick compiled mode."""
    monitor = Monitor(
        "incomplete", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, EventRef("a"), (), 1),
            Transition(0, Not(EventRef("a")), (), 0),
            # state 1 has no outgoing transitions at all
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    trace = Trace.from_sets([{"a"}, set()], alphabet={"a"})
    reference = StreamingChecker(compiled, stop_on_detection=True).feed(trace)
    for engine in diff_harness.stream_engines():
        vectorized = StreamingChecker(
            compiled, engine=engine, stop_on_detection=True, chunk_ticks=8
        ).feed(trace)
        assert vectorized.detections == reference.detections == [0]
        assert vectorized.ticks == reference.ticks == 1
        assert vectorized.stopped_early and reference.stopped_early


def test_streaming_vector_rejects_implications(numpy_mode, diff_harness):
    """The one table backend that streams without per-tick stepping
    (``native``) refuses implications; ``vector`` does not stream."""
    from repro.cesc.charts import Implication
    from repro.errors import MonitorError

    if "native" not in diff_harness.stream_engines():
        pytest.skip("native backend unavailable")

    def _chain(name, *events):
        builder = scesc(name).instances("M")
        for event in events:
            builder.tick(ev(event))
        return builder.build()

    implication = Implication(
        ScescChart(_chain("req", "req")), ScescChart(_chain("ok", "ok"))
    )
    with pytest.raises(MonitorError, match="detector"):
        StreamingChecker(implication, engine="native")


# ------------------------------------------------- ladder stress ----
def _stress_monitor(seed: int, n_states: int = 4) -> Monitor:
    """Seeded 100%-ladder-density monitor.

    Every guard pairs an input literal with a scoreboard literal, so
    every compiled cell is a check ladder (escape ratio 1.0) and every
    rung carries a predicated plan.  The four guards per state
    partition ``(a?, Chk x?)``, ``Del_evt("x")`` only fires under
    ``Chk("x")`` (including the del-then-re-add floor shape), and
    ``y`` only accumulates — so runs never raise and all five
    execution paths must agree on verdicts.
    """
    rng = random.Random(seed)
    transitions = []
    for state in range(n_states):
        for a_high in (False, True):
            for x_present in (False, True):
                literal = EventRef("a") if a_high else Not(EventRef("a"))
                check = ScoreboardCheck("x")
                guard = literal & (check if x_present else Not(check))
                actions = []
                roll = rng.random()
                if x_present and roll < 0.4:
                    actions.append(DelEvt("x"))
                elif x_present and roll < 0.6:
                    # Net-zero with a -1 floor: exercises the
                    # min-prefix (under-run) matrices without raising.
                    actions.extend((DelEvt("x"), AddEvt("x")))
                elif not x_present and roll < 0.6:
                    actions.append(AddEvt("x"))
                if rng.random() < 0.3:
                    actions.append(AddEvt("y"))
                transitions.append(Transition(
                    state, guard, tuple(actions), rng.randrange(n_states)
                ))
    return Monitor(
        f"stress_{seed}", n_states=n_states, initial=0,
        final=n_states - 1, transitions=transitions, alphabet={"a", "b"},
    )


def _stress_traces(seed: int, count: int = 6):
    rng = random.Random(1000 + seed)
    traces = [
        Trace.from_sets(
            [
                {s for s in ("a", "b") if rng.random() < 0.5}
                for _ in range(rng.randint(1, 25))
            ],
            alphabet={"a", "b"},
        )
        for _ in range(count)
    ]
    traces.append(Trace([], {"a", "b"}))
    return traces


@pytest.mark.parametrize("seed", range(8))
def test_ladder_stress_five_path_identity(seed, numpy_mode, diff_harness):
    """Randomized all-ladder charts: verdict + detection-tick identity
    across interpreted, scalar compiled, every other batch backend and
    streaming (compiled and native chunks)."""
    monitor = _stress_monitor(seed)
    compiled = compile_monitor(monitor)
    table = vector_table(compiled)
    assert table.escape_ratio == 1.0
    assert table.vectorizable  # predication covers every cell
    traces = _stress_traces(seed)
    _assert_identical(monitor, compiled, traces)
    reference = [run_monitor(monitor, trace) for trace in traces]
    for engine in diff_harness.stream_engines():
        streamed = [
            StreamingChecker(compiled, engine=engine,
                             stop_on_detection=False,
                             chunk_ticks=5).feed(trace)
            for trace in traces
        ]
        assert ([r.detections for r in streamed]
                == [r.detections for r in reference])


@pytest.mark.parametrize("seed", (2, 5))
def test_ladder_stress_injected_scoreboards(seed, numpy_mode):
    """Injected scoreboards are observable objects, so every backend
    steps them in Python even on all-ladder charts — verdicts and
    final board contents must match run_many exactly."""
    monitor = _stress_monitor(seed)
    compiled = compile_monitor(monitor)
    traces = _stress_traces(seed)
    left = [Scoreboard() for _ in traces]
    scalar = run_many(compiled, traces, scoreboards=left)
    for runner in _runners():
        right = [Scoreboard() for _ in traces]
        results = runner(compiled, traces, scoreboards=right)
        assert ([r.detections for r in scalar]
                == [r.detections for r in results])
        assert ([b.snapshot() for b in left]
                == [b.snapshot() for b in right])


# ----------------------------------------------- failure replay ----
def test_predicated_dead_rung_failures_replay_in_trace_order(numpy_mode):
    """Cells that are only *dynamically* incomplete (no rung passes for
    the runtime scoreboard) must surface run_many's exact
    no-transition error — and when several lanes die at the same tick,
    the lowest trace index's error, which names that index."""
    from repro.errors import MonitorError

    monitor = Monitor(
        "dead_rung", n_states=1, initial=0, final=0,
        transitions=[
            Transition(0, EventRef("a") & Not(ScoreboardCheck("x")),
                       (AddEvt("x"),), 0),
            Transition(0, Not(EventRef("a")) & ScoreboardCheck("x"),
                       (), 0),
            # a-high with x present / a-low with x absent: dead.
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    assert vector_table(compiled).vectorizable
    # Lanes 0 and 1 both die at tick 1 (second 'a' sees x present);
    # lane 2 never dies.
    traces = [
        Trace.from_sets([{"a"}, {"a"}, {"a"}], alphabet={"a"}),
        Trace.from_sets([{"a"}, {"a"}], alphabet={"a"}),
        Trace.from_sets([{"a"}, set(), set()], alphabet={"a"}),
    ]
    outcomes = []
    for runner in [run_many] + _runners():
        with pytest.raises(MonitorError) as info:
            runner(compiled, traces)
        outcomes.append(str(info.value))
    assert len(set(outcomes)) == 1, outcomes
    assert "(trace 0, tick 1)" in outcomes[0]


def test_predicated_mixed_failures_surface_lowest_index(numpy_mode):
    """Two lanes failing at the same tick with *different* anomalies
    (strict Del_evt under-run vs dead rung): the surfaced error —
    type and message — is the lowest trace index's, in both orders."""
    from repro.errors import MonitorError, ScoreboardError

    monitor = Monitor(
        "mixed_fail", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, EventRef("a") & ScoreboardCheck("x"), (), 1),
            Transition(0, Not(EventRef("a")) & ScoreboardCheck("x"),
                       (), 0),
            Transition(0, Not(EventRef("a")) & Not(ScoreboardCheck("x")),
                       (DelEvt("y"),), 0),
            # a-high with x absent: dead rung.
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    underrun = Trace.from_sets([set()], alphabet={"a"})
    dead = Trace.from_sets([{"a"}], alphabet={"a"})
    for traces, expected in (
        ([underrun, dead], ScoreboardError),
        ([dead, underrun], MonitorError),
    ):
        outcomes = []
        for runner in [run_many] + _runners():
            with pytest.raises(expected) as info:
                runner(compiled, traces)
            outcomes.append(f"{type(info.value).__name__}: {info.value}")
        assert len(set(outcomes)) == 1, outcomes


def test_predicated_full_scan_conflict_matches_scalar(numpy_mode):
    """A cell whose rungs can simultaneously pass with different
    behaviour fails the first-match proof; every backend must then
    surface the scalar full scan's nondeterminism error at the exact
    tick it becomes dynamic."""
    from repro.errors import MonitorError
    from repro.logic.expr import TRUE as _TRUE

    monitor = Monitor(
        "nd_runtime", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, ScoreboardCheck("x"), (), 1),
            Transition(0, _TRUE, (AddEvt("x"),), 0),
            Transition(1, _TRUE, (), 1),
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    assert not compiled.ladder_exclusive
    assert vector_table(compiled).vectorizable
    # Tick 0: only the floor passes (adds x). Tick 1: both rungs pass
    # with different targets — the full scan reports nondeterminism.
    traces = [Trace.from_sets([set(), set()], alphabet={"a"})]
    outcomes = []
    for runner in [run_many] + _runners():
        with pytest.raises(MonitorError) as info:
            runner(compiled, traces)
        outcomes.append(str(info.value))
    assert len(set(outcomes)) == 1, outcomes
    assert "nondeterministic in state" in outcomes[0]


# ------------------------------------------------ scalar lowering ----
def test_unpredicable_cell_keeps_scalar_residual(numpy_mode):
    """A rung condition outside the literal language (DNF blowup) keeps
    the whole table off the C lowering: every backend then steps it in
    the scalar loop, with the scalar engine's verdicts."""
    from repro.runtime.native import native_kernel

    wide = ScoreboardCheck("e0")
    for index in range(1, 40):
        wide = wide | ScoreboardCheck(f"e{index}")
    monitor = Monitor(
        "wide_or", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, wide, (), 1),
            Transition(0, Not(wide), (), 0),
            Transition(1, TRUE, (), 1),
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    table = vector_table(compiled)
    assert not table.vectorizable
    assert table.escape_ratio == 0.5
    assert native_kernel(compiled) is None
    traces = [Trace.from_sets([set(), {"a"}], alphabet={"a"})]
    expected = run_many(compiled, traces)[0].states
    for runner in _runners():
        assert runner(compiled, traces)[0].states == expected


def test_bank_encodes_each_trace_once():
    """Batch runs share mask arrays across same-alphabet monitors."""
    from repro.logic import codec as codec_module

    chart = ocp_simple_read_chart()
    bank = synthesize_chart(chart)
    members = bank.compiled_members()
    traces = _traces(chart, 6, seed=71, include_empty=False)
    codec_module.clear_trace_cache()
    bank.run_batch(traces)
    first = codec_module.trace_cache_info()
    distinct_alphabets = len({m.codec.symbols for m in members})
    assert first["misses"] == len(traces) * distinct_alphabets
    # A second batch over the same traces — and any number of extra
    # monitors over the same alphabet — re-encodes nothing.
    bank.run_batch(traces, engine="vector")
    second = codec_module.trace_cache_info()
    assert second["misses"] == first["misses"]
    assert second["hits"] > first["hits"]
