"""Tests for the monitor engine, checker verdicts and transition tables."""

import pytest

from repro.analysis.equivalence import transition_function
from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Alt, Implication, ScescChart
from repro.errors import MonitorError
from repro.logic.expr import EventRef, TRUE
from repro.monitor.automaton import AddEvt, Monitor, Transition
from repro.monitor.checker import AssertionChecker, Verdict
from repro.monitor.dot import monitor_to_dot, network_to_dot
from repro.monitor.engine import MonitorEngine, run_monitor
from repro.monitor.stats import guard_literals, monitor_stats
from repro.logic.valuation import Valuation
from repro.semantics.run import Trace
from repro.synthesis.tr import tr


def _one(name, *events):
    builder = scesc(name).instances("M")
    for event in events:
        builder.tick(ev(event))
    return builder.build()


# ---------------------------------------------------------------- engine ----
def test_engine_incremental_stepping():
    monitor = tr(_one("ab", "a", "b"))
    engine = MonitorEngine(monitor)
    assert engine.state == 0
    engine.step(Valuation({"a"}, {"a", "b"}))
    assert engine.state == 1
    engine.step(Valuation({"b"}, {"a", "b"}))
    assert engine.state == 2
    assert engine.detections == [1]
    engine.reset()
    assert engine.state == 0 and engine.detections == []


def test_engine_raises_on_stuck_monitor():
    monitor = Monitor("stuck", 2, 0, 1,
                      [Transition(0, EventRef("a"), (), 1)],
                      alphabet={"a"})
    engine = MonitorEngine(monitor)
    with pytest.raises(MonitorError, match="no transition"):
        engine.step(Valuation(set(), {"a"}))


def test_engine_raises_on_nondeterminism():
    monitor = Monitor(
        "nd", 2, 0, 1,
        [Transition(0, TRUE, (), 1), Transition(0, TRUE, (AddEvt("x"),), 0)],
        alphabet={"a"},
    )
    engine = MonitorEngine(monitor)
    with pytest.raises(MonitorError, match="nondeterministic"):
        engine.step(Valuation(set(), {"a"}))


def test_engine_duplicate_equivalent_transitions_tolerated():
    monitor = Monitor(
        "dup", 2, 0, 1,
        [Transition(0, TRUE, (), 1), Transition(0, EventRef("a"), (), 1),
         Transition(1, TRUE, (), 1)],
        alphabet={"a"},
    )
    engine = MonitorEngine(monitor)
    engine.step(Valuation({"a"}, {"a"}))
    assert engine.state == 1


def test_run_monitor_result_fields():
    monitor = tr(_one("ab", "a", "b"))
    trace = Trace.from_sets([{"a"}, {"b"}, {"a"}, {"b"}], alphabet={"a", "b"})
    result = run_monitor(monitor, trace)
    assert result.ticks == 4
    assert result.first_detection == 1
    assert result.detections == [1, 3]
    assert len(result.states) == 5


# --------------------------------------------------------------- checker ----
def _req_ack_checker():
    req = _one("req", "req")
    ack = _one("ack", "ack")
    return AssertionChecker(Implication(req, ack))


def test_checker_pass():
    checker = _req_ack_checker()
    trace = Trace.from_sets([{"req"}, {"ack"}], alphabet={"req", "ack"})
    report = checker.check(trace)
    assert report.ok
    assert len(report.passes) == 1
    assert report.antecedent_detections == [0]


def test_checker_fail_records_expectation():
    checker = _req_ack_checker()
    trace = Trace.from_sets([{"req"}, set()], alphabet={"req", "ack"})
    report = checker.check(trace)
    assert not report.ok
    violation = report.violations[0]
    assert violation.verdict is Verdict.FAIL
    assert violation.decided_tick == 1
    assert "expected ack" in violation.failed_expectations[0]


def test_checker_pending_at_trace_end():
    checker = _req_ack_checker()
    trace = Trace.from_sets([{"req"}], alphabet={"req", "ack"})
    report = checker.check(trace)
    assert report.ok  # pending is not a violation
    assert len(report.pending) == 1


def test_checker_overlapping_obligations():
    # Consequent takes 2 ticks; antecedents fire back to back.
    req = _one("req", "req")
    conseq = _one("resp", "r1", "r2")
    checker = AssertionChecker(Implication(req, conseq))
    trace = Trace.from_sets(
        [{"req"}, {"req", "r1"}, {"r1", "r2"}, {"r2"}],
        alphabet={"req", "r1", "r2"},
    )
    report = checker.check(trace)
    assert len(report.obligations) == 2
    assert len(report.passes) == 2


def test_checker_alt_consequent():
    req = _one("req", "req")
    conseq = Alt([_one("ok", "ok"), _one("err", "err")])
    checker = AssertionChecker(Implication(req, conseq))
    ok = Trace.from_sets([{"req"}, {"err"}], alphabet={"req", "ok", "err"})
    assert checker.check(ok).ok
    bad = Trace.from_sets([{"req"}, set()], alphabet={"req", "ok", "err"})
    assert not checker.check(bad).ok


def test_checker_requires_implication():
    with pytest.raises(MonitorError):
        AssertionChecker(ScescChart(_one("a", "a")))


# ---------------------------------------------------- transition table ----
def test_transition_function_table():
    monitor = tr(_one("ab", "a", "b"))
    table = transition_function(monitor)
    assert table[(0, frozenset({"a"}))] == 1
    assert table[(1, frozenset({"b"}))] == 2
    assert table[(0, frozenset())] == 0


# ------------------------------------------------------------- dot / stats ----
def test_monitor_to_dot_structure():
    monitor = tr(_one("ab", "a", "b"))
    dot = monitor_to_dot(monitor)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert "->" in dot


def test_network_to_dot():
    from repro.cesc.ast import Clock
    from repro.cesc.charts import AsyncPar
    from repro.synthesis.multiclock import synthesize_network

    m1 = scesc("M1", clock=Clock("c1", period=2)).instances("A") \
        .tick(ev("x")).build()
    m2 = scesc("M2", clock=Clock("c2", period=3)).instances("B") \
        .tick(ev("y")).build()
    network = synthesize_network(AsyncPar([m1, m2]))
    dot = network_to_dot(network)
    assert "cluster_0" in dot and "cluster_1" in dot
    assert "shared scoreboard" in dot


def test_monitor_stats():
    monitor = tr(_one("ab", "a", "b"))
    stats = monitor_stats(monitor)
    assert stats["states"] == 3
    assert stats["transitions"] == monitor.transition_count()
    assert stats["forward_edges"] >= 2
    assert stats["alphabet"] == 2
    assert guard_literals(EventRef("a") & ~EventRef("b")) == 2
