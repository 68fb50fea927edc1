"""Edge cases of the coverage layer the campaign loop leans on."""

import pickle

import pytest

from repro import (
    CompiledEngine,
    MonitorEngine,
    Trace,
    TraceGenerator,
    tr,
    tr_compiled,
)
from repro.analysis.coverage import CoverageCollector, MonitorCoverage
from repro.cesc.builder import ev, scesc
from repro.logic.expr import TRUE, EventRef, Not
from repro.monitor.automaton import Monitor, Transition
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.compiled import compile_monitor, run_many


def _chain(name, *events):
    builder = scesc(name).instances("M")
    for event in events:
        builder.tick(ev(event))
    return builder.build()


def _island_monitor():
    """State 2 and its self-loop are structurally unreachable."""
    return Monitor(
        "island", n_states=3, initial=0, final=1,
        transitions=[
            Transition(0, EventRef("a"), (), 1),
            Transition(0, Not(EventRef("a")), (), 0),
            Transition(1, TRUE, (), 1),
            Transition(2, TRUE, (), 2),
        ],
        alphabet={"a"},
    )


# -------------------------------------------------------------- empty runs ----
def test_empty_run_covers_only_the_initial_state():
    monitor = tr(_chain("ab", "a", "b"))
    coverage = MonitorCoverage(monitor)
    engine = MonitorEngine(monitor)
    engine.feed(Trace([], {"a", "b"}))
    coverage.record(engine)
    assert coverage.runs == 1
    assert coverage.state_coverage() == 1 / monitor.n_states
    assert not coverage.uncovered_states() == []
    assert len(coverage.uncovered_transitions()) == monitor.transition_count()


def test_empty_batch_result_folds_without_transitions_hit():
    monitor = tr_compiled(ocp_simple_read_chart())
    result = run_many(monitor, [Trace([], monitor.alphabet)],
                      record_transitions=True)[0]
    coverage = MonitorCoverage(monitor)
    coverage.record_result(result)
    assert coverage.transition_coverage() == 0.0
    assert coverage.report()["runs"] == 1


def test_zero_runs_report_is_well_formed():
    coverage = MonitorCoverage(tr(_chain("ab", "a", "b")))
    report = coverage.report()
    assert report["runs"] == 0
    assert report["state_coverage"] == 0.0
    assert coverage.never_taken()["transitions"]


# ------------------------------------------------------- unreachable states ----
def test_unreachable_states_block_closure_until_excluded():
    monitor = _island_monitor()
    coverage = MonitorCoverage(monitor)
    engine = MonitorEngine(monitor)
    engine.feed(Trace.from_sets([{"a"}, set()], {"a"}))
    coverage.record(engine)
    assert coverage.state_coverage() < 1.0
    assert 2 in coverage.uncovered_states()
    dead_edges = [t for t in monitor.transitions if t.source == 2]
    coverage.exclude_states([2])
    coverage.exclude_transitions(dead_edges)
    coverage.exclude_transitions(dead_edges)  # idempotent
    assert coverage.state_coverage() == 1.0
    assert coverage.excluded_states == [2]
    assert coverage.excluded_transitions == dead_edges
    # Excluded items vanish from the worklist but stay reported.
    worklist = coverage.never_taken()
    assert 2 not in worklist["states"]
    assert worklist["excluded_states"] == [2]
    assert dead_edges[0] not in worklist["transitions"]


def test_coverage_clamps_when_hits_exceed_the_reduced_goal():
    """Excluding an edge that *was* hit must not push coverage > 1."""
    monitor = tr(_chain("a", "a"))
    coverage = MonitorCoverage(monitor)
    engine = MonitorEngine(monitor)
    generator = TraceGenerator(_chain("a", "a"), seed=0)
    engine.feed(generator.satisfying_trace(prefix=1, suffix=1))
    coverage.record(engine)
    taken = [t for t in monitor.transitions
             if t not in coverage.uncovered_transitions()]
    coverage.exclude_transitions(taken[:1])
    assert coverage.transition_coverage() <= 1.0


# --------------------------------------------------- merging across engines ----
def test_merge_folds_interpreted_and_compiled_runs_together():
    chart = ocp_simple_read_chart()
    monitor = tr(chart)
    compiled = compile_monitor(monitor)
    generator = TraceGenerator(chart, seed=3)

    interpreted_side = MonitorCoverage(monitor)
    engine = MonitorEngine(monitor)
    engine.feed(generator.satisfying_trace(prefix=1, suffix=1))
    interpreted_side.record(engine)

    compiled_side = MonitorCoverage(monitor)
    compiled_engine = CompiledEngine(compiled)
    compiled_engine.feed(generator.random_trace(8))
    # compile_monitor links back through .source, so the compiled
    # engine folds straight into a collector tracking the Monitor.
    compiled_side.record(compiled_engine)

    merged = MonitorCoverage(monitor)
    merged.merge(interpreted_side)
    merged.merge(compiled_side)
    assert merged.runs == 2
    assert merged.state_coverage() >= interpreted_side.state_coverage()
    assert (merged.transition_coverage()
            >= max(interpreted_side.transition_coverage(),
                   compiled_side.transition_coverage()))


def test_merge_accepts_collector_over_the_compiled_form():
    monitor = tr(ocp_simple_read_chart())
    compiled = compile_monitor(monitor)
    over_compiled = MonitorCoverage(compiled)
    over_interpreted = MonitorCoverage(monitor)
    over_interpreted.merge(over_compiled)
    over_compiled.merge(over_interpreted)


def test_merge_rejects_foreign_transitions_even_when_linked():
    """The source link authorises folding, but the edges still have to
    belong to the tracked monitor's universe."""
    monitor = tr(_chain("a", "a"))
    compiled = compile_monitor(monitor)
    over_compiled = MonitorCoverage(compiled)
    donor = MonitorCoverage(monitor)
    # Simulate a donor whose hit set drifted outside the edge universe.
    donor._transitions_hit.add(tr(_chain("b", "b")).transitions[0])
    with pytest.raises(ValueError, match="not edges"):
        over_compiled.merge(donor)


def test_merge_and_record_reject_foreign_monitors():
    coverage = MonitorCoverage(tr(_chain("a", "a")))
    foreign = tr(_chain("b", "b"))
    with pytest.raises(ValueError):
        coverage.merge(MonitorCoverage(foreign))
    with pytest.raises(ValueError):
        coverage.record(MonitorEngine(foreign))


def test_unpickled_results_fold_into_coverage():
    """Transitions of unpickled batch results compare structurally
    equal, so coverage folds them into the original monitor's
    collector."""
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    generator = TraceGenerator(chart, seed=1)
    traces = [generator.satisfying_trace(prefix=1, suffix=1)
              for _ in range(4)]
    local = run_many(compiled, traces, record_transitions=True)
    results = pickle.loads(pickle.dumps(local))
    coverage = MonitorCoverage(compiled)
    for result, original in zip(results, local):
        # Copies, not identities, yet structurally equal.
        assert result.transitions[0] is not original.transitions[0]
        assert result.transitions == original.transitions
        coverage.record_result(result)
    assert coverage.runs == len(traces)
    assert coverage.transition_coverage() > 0


# ----------------------------------------------------- validation and misc ----
def test_record_result_requires_a_transition_log():
    monitor = tr_compiled(ocp_simple_read_chart())
    result = run_many(monitor, [Trace([], monitor.alphabet)])[0]
    with pytest.raises(ValueError, match="record_transitions=True"):
        MonitorCoverage(monitor).record_result(result)


def test_record_path_validates_states_and_transitions():
    monitor = tr(_chain("a", "a"))
    coverage = MonitorCoverage(monitor)
    with pytest.raises(ValueError, match="outside"):
        coverage.record_path(states=[99])
    foreign_edge = tr(_chain("b", "b")).transitions[0]
    with pytest.raises(ValueError, match="not an edge"):
        coverage.record_path(transitions=[foreign_edge])
    with pytest.raises(ValueError, match="outside"):
        coverage.exclude_states([-1])
    with pytest.raises(ValueError, match="not an edge"):
        coverage.exclude_transitions([foreign_edge])


def test_transition_coverage_of_edgeless_monitor_is_total():
    monitor = Monitor("empty", n_states=1, initial=0, final=0,
                      transitions=[], alphabet={"a"})
    coverage = MonitorCoverage(monitor)
    assert coverage.transition_coverage() == 1.0


def test_collector_alias_and_repr():
    assert CoverageCollector is MonitorCoverage
    coverage = MonitorCoverage(tr(_chain("a", "a")))
    assert "MonitorCoverage" in repr(coverage)
