"""Targeted tests for paths not covered elsewhere.

Subset-DFA materialisation, engine transition logs, monitor-network
error paths, DSL corner cases, HDL operator coverage, and codegen edge
cases.
"""

import pytest

from repro import Monitor, Scoreboard, SubsetMonitor, Trace, Transition, \
    run_monitor, tr
from repro.cesc.ast import Clock
from repro.cesc.builder import ev, scesc
from repro.errors import HdlSimError, MonitorError, SynthesisError
from repro.hdl.sim import VerilogSim
from repro.logic.expr import EventRef, TRUE
from repro.logic.valuation import Valuation
from repro.monitor.engine import MonitorEngine
from repro.monitor.network import LocalMonitor, MonitorNetwork
from repro.synthesis.pattern import extract_pattern


def _chain(name, *events):
    builder = scesc(name).instances("M")
    for event in events:
        builder.tick(ev(event))
    return builder.build()


# ------------------------------------------------------------ subset DFA ----
def test_subset_dfa_materialisation_matches_online_monitor():
    pattern = extract_pattern(_chain("aab", "a", "a", "b"))
    subset = SubsetMonitor(pattern)
    dfa = subset.to_dfa()
    assert dfa.n_states >= 2
    for sets in ([{"a"}, {"a"}, {"b"}], [{"a"}] * 5, [{"b"}, {"a"}, {"b"}]):
        trace = Trace.from_sets(sets, alphabet={"a", "b"})
        online = SubsetMonitor(pattern).feed(trace)
        assert dfa.run(trace) == online.detections


def test_subset_monitor_reset_and_positions():
    pattern = extract_pattern(_chain("ab", "a", "b"))
    subset = SubsetMonitor(pattern)
    subset.step(Valuation({"a"}, {"a", "b"}))
    assert 1 in subset.positions
    subset.reset()
    assert subset.positions == frozenset({0})
    assert not subset.accepted


# ----------------------------------------------------------------- engine ----
def test_engine_transition_log_grows_and_resets():
    monitor = tr(_chain("ab", "a", "b"))
    engine = MonitorEngine(monitor)
    engine.feed(Trace.from_sets([{"a"}, {"b"}], alphabet={"a", "b"}))
    log = engine.transition_log
    assert len(log) == 2
    assert log[0].target == 1 and log[1].target == 2
    engine.reset()
    assert engine.transition_log == []


def test_engine_commit_without_actions():
    monitor = tr(_chain("a", "a"))
    engine = MonitorEngine(monitor)
    transition = engine.enabled_transition(Valuation({"a"}, {"a"}))
    engine.commit(transition, apply_actions=False)
    assert engine.state == 1


# ---------------------------------------------------------------- network ----
def test_network_rejects_empty_and_duplicate_clocks():
    monitor = tr(_chain("a", "a"))
    with pytest.raises(MonitorError):
        MonitorNetwork("empty", [])
    clk = Clock("c", period=1)
    locals_ = [
        LocalMonitor("A", clk, monitor),
        LocalMonitor("B", clk, monitor),
    ]
    with pytest.raises(MonitorError, match="share clock"):
        MonitorNetwork("dup", locals_)


def test_network_total_counts():
    monitor = tr(_chain("a", "a"))
    network = MonitorNetwork("n", [
        LocalMonitor("A", Clock("c1", period=2), monitor),
        LocalMonitor("B", Clock("c2", period=3), monitor),
    ])
    assert network.total_states() == 4
    assert network.total_transitions() == 2 * monitor.transition_count()


# ------------------------------------------------------------------- DSL ----
def test_dsl_default_clock_and_multiple_groups():
    from repro.cesc.parser import parse_cesc

    spec = parse_cesc("""
        chart multi {
          instances A, B, C;
          tick: A -> B : x also B -> C : y also C -> A : z;
        }
    """)
    chart = spec.charts["multi"]
    assert chart.clock.name == "clk"  # default
    assert len(chart.ticks[0]) == 3
    routes = {(o.source, o.target) for o in chart.ticks[0].occurrences}
    assert routes == {("A", "B"), ("B", "C"), ("C", "A")}


def test_dsl_guard_with_parentheses_and_also():
    from repro.cesc.parser import parse_cesc
    from repro.logic.expr import And, Or, PropRef

    spec = parse_cesc("""
        chart g {
          instances A;
          props p, q, r;
          tick: x when (p | q) & r also y;
        }
    """)
    tick = spec.charts["g"].ticks[0]
    assert tick.occurrences[0].guard == And(
        (Or((PropRef("p"), PropRef("q"))), PropRef("r"))
    )
    assert tick.occurrences[1].guard is None


# ------------------------------------------------------------------- HDL ----
def test_hdl_ternary_concat_and_shifts():
    source = """
    module ops (input wire clk, input wire rst_n, input wire a,
                input wire b, output reg [7:0] y);
      always @(posedge clk) begin
        if (!rst_n) y <= 8'd0;
        else y <= a ? ({a, b} << 2) : (8'd128 >> 1);
      end
    endmodule
    """
    sim = VerilogSim(source)
    sim.step({"rst_n": 0})
    assert sim.step({"rst_n": 1, "a": 1, "b": 1})["y"] == 0b1100
    assert sim.step({"a": 0})["y"] == 64


def test_hdl_reduction_and_arithmetic():
    source = """
    module red (input wire clk, input wire rst_n, input wire [3:0] v,
                output reg all_ones, output reg any_one, output reg parity);
      always @(posedge clk) begin
        all_ones <= &v;
        any_one <= |v;
        parity <= ^v;
      end
    endmodule
    """
    sim = VerilogSim(source)
    out = sim.step({"rst_n": 1, "v": 0b1111})
    assert (out["all_ones"], out["any_one"], out["parity"]) == (1, 1, 0)
    out = sim.step({"v": 0b0010})
    assert (out["all_ones"], out["any_one"], out["parity"]) == (0, 1, 1)


def test_hdl_division_by_zero_raises():
    source = """
    module dv (input wire clk, input wire [3:0] v, output reg [3:0] y);
      always @(posedge clk) y <= 8 / v;
    endmodule
    """
    sim = VerilogSim(source)
    with pytest.raises(HdlSimError):
        sim.step({"v": 0})


def test_hdl_blocking_assignment_order():
    source = """
    module blk (input wire clk, input wire rst_n, output reg [3:0] y);
      reg [3:0] t;
      always @(posedge clk) begin
        t = 4'd3;
        y <= t + 4'd1;
      end
    endmodule
    """
    sim = VerilogSim(source)
    assert sim.step({"rst_n": 1})["y"] == 4


# ----------------------------------------------------------------- codegen ----
def test_verilog_codegen_dense_monitor_also_cosims():
    """Even the raw minterm-table monitor round-trips through RTL."""
    from repro.codegen.verilog import monitor_to_verilog

    chart = _chain("ab", "a", "b")
    dense = tr(chart)  # minterm form, 12 transitions
    generated = monitor_to_verilog(dense)
    sim = VerilogSim(generated.source)
    sim.step({"rst_n": 0})
    trace = Trace.from_sets([{"a"}, {"b"}, set()], alphabet={"a", "b"})
    detections = []
    for tick, valuation in enumerate(trace):
        vector = {"rst_n": 1}
        for symbol, port in generated.port_of_symbol.items():
            vector[port] = int(valuation.is_true(symbol))
        if sim.step(vector)["detect"]:
            detections.append(tick)
    assert detections == run_monitor(dense, trace).detections == [1]


def test_python_codegen_raises_on_stuck_input():
    from repro.codegen.python_gen import monitor_to_python

    # A deliberately incomplete hand-made monitor.
    monitor = Monitor("gappy", 2, 0, 1,
                      [Transition(0, EventRef("a"), (), 1),
                       Transition(1, TRUE, (), 1)],
                      alphabet={"a"})
    namespace = {}
    exec(compile(monitor_to_python(monitor), "<gen>", "exec"), namespace)
    instance = namespace["Monitor"]()
    with pytest.raises(RuntimeError):
        instance.step(set())


# -------------------------------------------------------------- synthesis ----
def test_synthesize_monitor_bad_extra_check_tick():
    from repro.synthesis.tr import synthesize_monitor

    pattern = extract_pattern(_chain("a", "a"))
    with pytest.raises(SynthesisError):
        synthesize_monitor(pattern, extra_checks={5: frozenset({"x"})})


def test_bank_with_shared_scoreboards_requires_matching_count():
    from repro.synthesis.compose import synthesize_chart

    bank = synthesize_chart(_chain("a", "a"))
    with pytest.raises(SynthesisError):
        bank.run(Trace.from_sets([{"a"}], alphabet={"a"}),
                 scoreboards=[Scoreboard(), Scoreboard()])
