"""repro — Automated synthesis of assertion monitors from visual specs.

A full reimplementation of Gadkari & Ramesh, *Automated Synthesis of
Assertion Monitors using Visual Specifications* (DATE 2005): the CESC
visual specification language, its formal semantics, the ``Tr`` monitor
synthesis algorithm with its scoreboard-based causality discipline,
multi-clock (GALS) monitor networks, and the surrounding verification
flow — protocol models, a clocked simulation substrate, HDL code
generation with a Verilog-subset co-simulator, and temporal-logic /
manual baselines.

Quickstart::

    from repro import ev, scesc, tr, run_monitor, Trace

    chart = (
        scesc("handshake").instances("M", "S")
        .tick(ev("req", src="M", dst="S"))
        .tick(ev("ack", src="S", dst="M"))
        .arrow("done", cause="req", effect="ack")
        .build()
    )
    monitor = tr(chart)                      # the paper's algorithm
    trace = Trace.from_sets([{"req"}, {"ack"}], alphabet={"req", "ack"})
    print(run_monitor(monitor, trace).detections)   # -> [1]

Importing ``repro`` imports none of its modules: every exported name
resolves on first use (PEP 562), and so do the names of each
subpackage, so a program pays only for what it touches.

See README.md for the architecture tour and DESIGN.md for the paper
mapping.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "AddEvt": "repro.monitor.automaton",
    "AlphabetCodec": "repro.logic.codec",
    "Alt": "repro.cesc.charts",
    "And": "repro.logic.expr",
    "AssertionChecker": "repro.monitor.checker",
    "AsyncPar": "repro.cesc.charts",
    "CausalityArrow": "repro.cesc.ast",
    "Chart": "repro.cesc.charts",
    "Clock": "repro.cesc.ast",
    "CompiledEngine": "repro.monitor.engine",
    "CompiledMonitor": "repro.runtime.compiled",
    "CoverageCampaign": "repro.campaign.closure",
    "CrossArrow": "repro.cesc.charts",
    "DelEvt": "repro.monitor.automaton",
    "DirectedTrace": "repro.campaign.directed",
    "FaultMutationCampaign": "repro.campaign.faults",
    "EventOccurrence": "repro.cesc.ast",
    "EventRef": "repro.logic.expr",
    "Expr": "repro.logic.expr",
    "GlobalRun": "repro.semantics.run",
    "Implication": "repro.cesc.charts",
    "Loop": "repro.cesc.charts",
    "Monitor": "repro.monitor.automaton",
    "MonitorBank": "repro.synthesis.compose",
    "MonitorEngine": "repro.monitor.engine",
    "MonitorNetwork": "repro.monitor.network",
    "MonitorResult": "repro.runtime.compiled",
    "Not": "repro.logic.expr",
    "Or": "repro.logic.expr",
    "Par": "repro.cesc.charts",
    "PropRef": "repro.logic.expr",
    "SCESC": "repro.cesc.ast",
    "ScescChart": "repro.cesc.charts",
    "Scoreboard": "repro.monitor.scoreboard",
    "ScoreboardCheck": "repro.logic.expr",
    "Seq": "repro.cesc.charts",
    "SignalBinding": "repro.trace.vcd_reader",
    "StimulusSynthesizer": "repro.campaign.directed",
    "StreamReport": "repro.trace.shard",
    "StreamingChecker": "repro.trace.streaming",
    "SubsetMonitor": "repro.synthesis.subset",
    "Tick": "repro.cesc.ast",
    "Trace": "repro.semantics.run",
    "TraceGenerator": "repro.semantics.generator",
    "Transition": "repro.monitor.automaton",
    "Valuation": "repro.logic.valuation",
    "VcdReader": "repro.trace.vcd_reader",
    "Verdict": "repro.monitor.checker",
    "compile_monitor": "repro.runtime.compiled",
    "ev": "repro.cesc.builder",
    "parse_cesc": "repro.cesc.parser",
    "parse_expr": "repro.logic.parser",
    "run_compiled": "repro.runtime.compiled",
    "run_many": "repro.runtime.compiled",
    "run_monitor": "repro.monitor.engine",
    "scesc": "repro.cesc.builder",
    "symbolic_monitor": "repro.synthesis.symbolic",
    "synthesize_chart": "repro.synthesis.compose",
    "synthesize_compiled": "repro.synthesis.tr",
    "synthesize_monitor": "repro.synthesis.dense",
    "synthesize_network": "repro.synthesis.multiclock",
    "tr": "repro.synthesis.tr",
    "tr_compiled": "repro.synthesis.tr",
    "trace_to_vcd": "repro.trace.bridge",
    "validate_chart": "repro.cesc.validate",
    "validate_scesc": "repro.cesc.validate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
