"""Unit tests for the optimization passes and their wiring."""

import io

import pytest

from repro import synthesize_chart
from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Implication, ScescChart
from repro.cli import main
from repro.errors import MonitorError
from repro.logic.expr import TRUE, EventRef, Not, ScoreboardCheck
from repro.monitor.automaton import AddEvt, Monitor, Transition
from repro.monitor.checker import AssertionChecker
from repro.monitor.engine import run_monitor
from repro.optimize import (
    optimize_compiled,
    optimize_monitor,
    prune_compiled,
    prune_monitor,
    used_symbols,
    used_symbols_compiled,
)
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.compiled import compile_monitor, run_compiled
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace
from repro.synthesis.tr import tr, tr_compiled


def _chain(name, *events):
    builder = scesc(name).instances("M")
    for event in events:
        builder.tick(ev(event))
    return builder.build()


# --------------------------------------------------------------- pruning ----
def _widened(monitor, *extra):
    return Monitor(
        monitor.name, n_states=monitor.n_states, initial=monitor.initial,
        final=monitor.final, transitions=monitor.transitions,
        alphabet=monitor.alphabet | set(extra), props=monitor.props,
    )


def test_prune_monitor_drops_unreferenced_symbols():
    monitor = _widened(tr(_chain("ab", "a", "b")), "junk1", "junk2")
    assert used_symbols(monitor) == frozenset({"a", "b"})
    pruned = prune_monitor(monitor)
    assert pruned.alphabet == frozenset({"a", "b"})
    trace = Trace.from_sets([{"a"}, {"b"}], alphabet={"a", "b", "junk1"})
    assert (run_monitor(pruned, trace).detections
            == run_monitor(monitor, trace).detections)


def test_prune_monitor_identity_when_all_used():
    monitor = tr(_chain("ab", "a", "b"))
    assert prune_monitor(monitor) is monitor


def test_prune_compiled_narrows_the_codec():
    monitor = _widened(tr(_chain("ab", "a", "b")), "junk")
    compiled = compile_monitor(monitor)
    assert compiled.codec.size == 8
    pruned = prune_compiled(compiled)
    assert used_symbols_compiled(compiled) == frozenset({"a", "b"})
    assert pruned.codec.size == 4
    generator = TraceGenerator(ScescChart(_chain("ab", "a", "b")), seed=1)
    for _ in range(10):
        trace = generator.random_trace(8)
        assert (run_compiled(pruned, trace).detections
                == run_compiled(compiled, trace).detections)


def test_prune_compiled_keeps_check_residue_symbols():
    """A symbol only read inside a compiled check residue must survive
    pruning even though the cell objects coincide across its bit."""
    guard_taken = EventRef("a") & ScoreboardCheck("x")
    monitor = Monitor(
        "residue", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, guard_taken, (AddEvt("x"),), 1),
            Transition(0, Not(EventRef("a") & ScoreboardCheck("x")), (), 0),
            Transition(1, TRUE, (), 1),
        ],
        alphabet={"a", "b"},
    )
    compiled = compile_monitor(monitor)
    # "a" appears only under the non-conjunctive residue guards, "b"
    # appears nowhere: exactly one symbol must prune.
    assert used_symbols_compiled(compiled) == frozenset({"a"})
    pruned = prune_compiled(compiled)
    assert pruned.codec.symbols == ("a",)
    from repro.monitor.scoreboard import Scoreboard

    for sets in ([{"a"}, {"a"}], [set(), {"a"}], [{"b"}, {"a"}, {"a"}]):
        trace = Trace.from_sets(sets, alphabet={"a", "b"})
        reference = run_compiled(
            compiled, trace, scoreboard=Scoreboard(strict=False)
        ).detections
        got = run_compiled(
            pruned, trace, scoreboard=Scoreboard(strict=False)
        ).detections
        assert got == reference, sets


def test_synthesizer_reads_pruned_tables():
    from repro.campaign.directed import StimulusSynthesizer

    monitor = _widened(tr(ocp_simple_read_chart()), "junk")
    optimized = optimize_monitor(monitor)
    assert "junk" not in optimized.compiled.alphabet
    synthesizer = StimulusSynthesizer(optimized.compiled)
    accepting = synthesizer.accepting_trace()
    assert accepting is not None
    assert accepting.predicted_detections
    # Replay through the unoptimized reference: same detection ticks.
    projected = Trace(
        [v.restricted(monitor.alphabet) for v in accepting.trace],
        monitor.alphabet,
    )
    assert (run_monitor(monitor, projected).detections
            == list(accepting.predicted_detections))


# -------------------------------------------------------------- pipeline ----
def test_optimize_monitor_preserves_name_and_reports_stats():
    monitor = tr(ocp_simple_read_chart())
    result = optimize_monitor(monitor)
    assert result.monitor.name == monitor.name
    assert result.compiled.name == monitor.name
    assert result.stats["baseline_cells"] >= \
        result.stats["optimized_cells"]
    # Cells halve per pruned symbol: the widened monitor's one junk
    # symbol must go.
    widened = optimize_monitor(_widened(monitor, "junk"))
    assert widened.cell_reduction >= 2.0, widened.stats


def test_optimize_monitor_stage_knobs():
    monitor = _widened(tr(ocp_simple_read_chart()), "junk")
    plain = optimize_monitor(monitor, minimize=False, prune=False)
    assert plain.compiled.codec.size == \
        compile_monitor(monitor).codec.size
    pruned = optimize_monitor(monitor, minimize=False)
    assert "junk" not in pruned.compiled.alphabet
    assert pruned.compiled.codec.size * 2 == plain.compiled.codec.size


def test_optimize_compiled_table_only():
    compiled = tr_compiled(ocp_simple_read_chart())
    # Direct Tr emission is already ladder-exclusive over exactly the
    # symbols it consults: nothing to harden or prune.
    assert optimize_compiled(compiled) is compiled
    widened = compile_monitor(_widened(tr(_chain("ab", "a", "b")), "junk"))
    assert optimize_compiled(widened).table_cells() * 2 == \
        widened.table_cells()


def test_bank_optimize_knob_is_tick_identical():
    chart = ocp_simple_read_chart()
    bank = synthesize_chart(chart)
    optimized = synthesize_chart(chart, optimize=True)
    assert optimized.optimize
    generator = TraceGenerator(chart, seed=11)
    traces = [generator.random_trace(10) for _ in range(6)]
    assert ([r.detections for r in bank.run_batch(traces)]
            == [r.detections for r in optimized.run_batch(traces)])


def test_bank_optimize_rejects_interpreted_runs():
    from repro.errors import SynthesisError

    bank = synthesize_chart(ocp_simple_read_chart(), optimize=True)
    trace = Trace.from_sets([set()], alphabet=set())
    with pytest.raises(SynthesisError, match="compiled"):
        bank.run(trace)  # default engine="interpreted"


def test_checker_optimize_requires_compiled_engine():
    implication = Implication(
        ScescChart(_chain("req", "req")), ScescChart(_chain("ok", "ok"))
    )
    with pytest.raises(MonitorError, match="compiled"):
        AssertionChecker(implication, optimize=True)  # default interpreted


def test_checker_optimize_knob():
    implication = Implication(
        ScescChart(_chain("req", "req")), ScescChart(_chain("ok", "ok"))
    )
    plain = AssertionChecker(implication, engine="compiled")
    optimized = AssertionChecker(implication, engine="compiled",
                                 optimize=True)
    good = Trace.from_sets([{"req"}, {"ok"}], alphabet={"req", "ok"})
    bad = Trace.from_sets([{"req"}, set()], alphabet={"req", "ok"})
    assert plain.check(good).ok and optimized.check(good).ok
    assert not plain.check(bad).ok and not optimized.check(bad).ok


# -------------------------------------------------------------------- cli ----
def test_cli_optimize_requires_compiled_engine(tmp_path):
    trace_path = tmp_path / "t.json"
    trace_path.write_text('{"signal": [{"name": "MCmd_rd", "wave": "0"}]}')
    out = io.StringIO()
    status = main([
        "check", "examples/ocp_simple_read.cesc", "ocp_simple_read",
        str(trace_path), "--engine", "interpreted", "--optimize",
    ], out=out)
    assert status == 2
    assert "--optimize needs --engine compiled" in out.getvalue()


def test_cli_campaign_optimize_reaches_closure():
    out = io.StringIO()
    status = main([
        "campaign", "examples/ocp_simple_read.cesc", "ocp_simple_read",
        "--target-coverage", "1.0", "--budget", "64", "--optimize",
    ], out=out)
    assert status == 0, out.getvalue()
    assert "closure reached" in out.getvalue()
