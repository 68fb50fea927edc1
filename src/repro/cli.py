"""Command-line front end: the CESC flow as a tool.

Usage (also via ``python -m repro``)::

    repro validate  SPEC.cesc                      # parse + lint
    repro render    SPEC.cesc CHART                # ASCII chart
    repro synthesize SPEC.cesc CHART --format dot|verilog|sva|psl|python|table
    repro check     SPEC.cesc CHART TRACE.json     # run monitor on a
                                                   # WaveDrom trace
    repro ingest    SPEC.cesc CHART --vcd DUMP --clock clk --cache DIR
                                                   # pre-encode dumps to
                                                   # columnar .rtrc form
    repro campaign  SPEC.cesc CHART --target-coverage 1.0 --budget 256
                                                   # coverage-closure
                                                   # test campaign

The trace file for ``check`` is a WaveDrom document (bi-level subset);
exit status is 0 when the scenario was detected, 3 when not — so the
tool slots into Makefile-style regression flows.  ``campaign`` follows
the same discipline: exit 0 when coverage closed within budget (and
every fault prediction held), 3 when it did not.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.consistency import check_consistency
from repro.cesc.charts import ScescChart
from repro.cesc.parser import parse_cesc
from repro.cesc.validate import validate_scesc
from repro.codegen.psl import chart_to_psl
from repro.codegen.python_gen import monitor_to_python
from repro.codegen.sva import chart_to_sva
from repro.codegen.verilog import monitor_to_verilog
from repro.errors import ReproError
from repro.monitor.dot import monitor_to_dot
from repro.monitor.engine import run_monitor
from repro.monitor.stats import monitor_stats
from repro.runtime.engines import (
    AUTO,
    Workload,
    backend as engine_backend,
    backend_names,
    engine_choices,
    plan_execution,
    require_backend,
    resolve_step_backend,
)
from repro.synthesis.symbolic import symbolic_monitor
from repro.synthesis.tr import tr, tr_compiled
from repro.visual.ascii_chart import render_scesc
from repro.visual.wavedrom import wavedrom_to_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CESC assertion-monitor synthesis (DATE 2005 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="parse a spec and run the consistency lint")
    validate.add_argument("spec", help="CESC DSL file")

    render = commands.add_parser("render", help="render a chart as ASCII")
    render.add_argument("spec", help="CESC DSL file")
    render.add_argument("chart", help="chart name inside the spec")

    synthesize = commands.add_parser(
        "synthesize", help="synthesize a monitor and print it")
    synthesize.add_argument("spec", help="CESC DSL file")
    synthesize.add_argument("chart", help="chart name inside the spec")
    synthesize.add_argument(
        "--format", default="table",
        choices=("table", "dot", "verilog", "sva", "psl", "python"),
        help="output representation (default: table)")
    synthesize.add_argument(
        "--dense", action="store_true",
        help="keep the per-valuation minterm table (skip symbolic "
             "guard compression)")

    check = commands.add_parser(
        "check",
        help="run the synthesized monitor over traces (WaveDrom or VCD)")
    check.add_argument("spec", help="CESC DSL file")
    check.add_argument("chart", help="chart name inside the spec")
    check.add_argument(
        "trace", nargs="?",
        help="WaveDrom JSON trace file (or use --vcd)")
    check.add_argument(
        "--engine", default=AUTO, choices=engine_choices(),
        help="stepping backend (default: auto — the planner picks "
             "from the workload shape): dense table dispatch, the "
             "reference guard-tree interpreter, the trace-parallel "
             "vector kernel, or the compile-on-demand native C "
             "stepper (needs a host C compiler; identical verdicts)")
    check.add_argument(
        "--optimize", action="store_true",
        help="run the monitor through the optimization pipeline "
             "(state minimisation, alphabet pruning, ladder hardening) "
             "before checking — identical verdicts, smaller tables "
             "(needs a table-compiling --engine)")
    check.add_argument(
        "--vcd", action="append", default=[], metavar="DUMP",
        help="VCD waveform dump to check (repeatable; each dump is one "
             "trace)")
    check.add_argument(
        "--clock", metavar="SIGNAL",
        help="sample VCD dumps on rising edges of this signal "
             "(--vcd requires either --clock or --period)")
    check.add_argument(
        "--period", type=int, metavar="N",
        help="sample VCD dumps every N time units instead of a clock")
    check.add_argument(
        "--bind", action="append", default=[], metavar="SIGNAL=SYMBOL",
        help="map a VCD signal to a chart symbol (repeatable; default "
             "binds every signal to its own name)")
    check.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard uncached --vcd dumps across N worker processes, "
             "each parsing and checking its own (0 = one per core; "
             "needs a table-compiling --engine; no effect with "
             "--cache)")
    check.add_argument(
        "--cache", metavar="DIR",
        help="content-addressed columnar corpus cache: dumps are "
             "ingested to pre-encoded .rtrc entries on first sight and "
             "warm re-checks skip VCD parsing entirely (needs --vcd)")

    ingest = commands.add_parser(
        "ingest",
        help="convert VCD dumps to the pre-encoded columnar .rtrc form")
    ingest.add_argument("spec", help="CESC DSL file")
    ingest.add_argument("chart", help="chart name inside the spec "
                                      "(fixes the alphabet codec)")
    ingest.add_argument(
        "--vcd", action="append", default=[], metavar="DUMP",
        help="VCD waveform dump to ingest (repeatable)")
    ingest.add_argument(
        "--clock", metavar="SIGNAL",
        help="sample on rising edges of this signal")
    ingest.add_argument(
        "--period", type=int, metavar="N",
        help="sample every N time units instead of a clock")
    ingest.add_argument(
        "--bind", action="append", default=[], metavar="SIGNAL=SYMBOL",
        help="map a VCD signal to a chart symbol (repeatable)")
    ingest.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="has no effect: every dump is parsed once, in this "
             "process (accepted for existing scripts)")
    ingest.add_argument(
        "--engine", default=AUTO, choices=engine_choices("batch"),
        help="the batch backend later checks will use (default: auto); "
             "validated against the registry — .rtrc output itself is "
             "backend-agnostic mask arrays")
    ingest.add_argument(
        "--optimize", action="store_true",
        help="encode against the optimized monitor's (possibly pruned) "
             "alphabet — match the flag you will pass to check")
    ingest.add_argument(
        "--cache", metavar="DIR",
        help="store entries content-addressed in this corpus cache "
             "directory (the form `check --cache` reads back)")
    ingest.add_argument(
        "--out", metavar="FILE",
        help="write a single dump's columnar form to an explicit path "
             "(exactly one --vcd)")
    ingest.add_argument(
        "--force", action="store_true",
        help="re-parse even when a warm cache entry exists")

    campaign = commands.add_parser(
        "campaign",
        help="run a coverage-directed test campaign to closure")
    campaign.add_argument("spec", help="CESC DSL file")
    campaign.add_argument("chart", help="chart name inside the spec")
    campaign.add_argument(
        "--target-coverage", type=float, default=1.0, metavar="F",
        help="state and transition coverage target in [0, 1] "
             "(default: 1.0 — full closure)")
    campaign.add_argument(
        "--budget", type=int, default=256, metavar="N",
        help="maximum number of traces to execute (default: 256)")
    campaign.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="random seed for the noise phase (default: 0)")
    campaign.add_argument(
        "--seed-traces", type=int, default=12, metavar="N",
        help="random traces executed before directed generation "
             "(default: 12)")
    campaign.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard batch execution across N worker processes "
             "(0 = one per core)")
    campaign.add_argument(
        "--engine", default=AUTO, choices=engine_choices("step"),
        help="monitor form the campaign covers: the compiled dispatch "
             "table's compressed edges (auto resolves here, the "
             "default) or the dense interpreted automaton")
    campaign.add_argument(
        "--optimize", action="store_true",
        help="cover the optimized monitor (minimised, pruned, "
             "hardened) instead of the raw synthesis output")
    campaign.add_argument(
        "--faults", type=int, default=0, metavar="N",
        help="additionally run a fault-mutation campaign with N random "
             "mutants on top of the per-tick targeted ones")
    campaign.add_argument(
        "--export-vcd", metavar="DIR",
        help="write the final corpus as VCD dumps into DIR")
    campaign.add_argument(
        "--export-columnar", metavar="FILE",
        help="write the final corpus as one pre-encoded columnar "
             ".rtrc file (mask arrays ready for re-checking)")
    campaign.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable campaign report")

    serve = commands.add_parser(
        "serve",
        help="run monitors as a long-lived async checking service")
    serve.add_argument("spec", help="CESC DSL file")
    serve.add_argument(
        "charts", nargs="+",
        help="chart name(s) to serve (the first is the default monitor "
             "for streams that name none)")
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8750, metavar="N",
        help="bind port (default: 8750; 0 picks a free port)")
    serve.add_argument(
        "--engine", default=AUTO, choices=engine_choices("streaming"),
        help="stepping backend for streams (default: auto — chunked "
             "vector push when NumPy is live, scalar tables otherwise; "
             "per-open overrides still apply)")
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan corpus checks out to N persistent worker processes "
             "off the event loop (0 = one per core; default 1: check "
             "on-loop)")
    serve.add_argument(
        "--optimize", action="store_true",
        help="serve optimized monitors (minimised, pruned, hardened); "
             "identical verdicts (needs a table-compiling --engine)")
    serve.add_argument(
        "--queue-chunks", type=int, default=8, metavar="N",
        help="chunks buffered per stream before backpressure (or "
             "shedding) kicks in (default: 8)")
    serve.add_argument(
        "--shed-slow", action="store_true",
        help="refuse further pushes on a stream whose queue overruns "
             "instead of stalling the producer (default: stall)")
    serve.add_argument(
        "--max-streams", type=int, default=1024, metavar="N",
        help="cap on concurrently open streams (default: 1024)")
    serve.add_argument(
        "--cache", metavar="DIR",
        help="corpus cache root the 'corpus' op resolves keys against "
             "(the directory `repro ingest --cache` filled)")
    return parser


def _load_scesc(spec_path: str, chart_name: str):
    with open(spec_path) as stream:
        spec = parse_cesc(stream.read())
    if chart_name not in spec.charts:
        known = ", ".join(sorted(spec.charts)) or "(none)"
        raise ReproError(
            f"no SCESC named {chart_name!r} in {spec_path} "
            f"(known charts: {known})"
        )
    return spec.charts[chart_name]


def _cmd_validate(args, out) -> int:
    with open(args.spec) as stream:
        spec = parse_cesc(stream.read())
    status = 0
    for name, chart in sorted(spec.charts.items()):
        structural: List[str] = []
        try:
            validate_scesc(chart)
        except ReproError as error:
            structural.append(str(error))
        findings = check_consistency(ScescChart(chart))
        errors = [f for f in findings if f.severity == "error"]
        out.write(f"{name}: {chart.n_ticks} grid lines, "
                  f"{len(chart.arrows)} arrows — "
                  f"{len(errors) + len(structural)} error(s), "
                  f"{len(findings) - len(errors)} warning(s)\n")
        for message in structural:
            out.write(f"  [error] {message}\n")
        for finding in findings:
            out.write(f"  {finding}\n")
        if errors or structural:
            status = 2
    for name in sorted(spec.composites):
        out.write(f"{name}: composite ({type(spec.composites[name]).__name__})\n")
    return status


def _cmd_render(args, out) -> int:
    chart = _load_scesc(args.spec, args.chart)
    out.write(render_scesc(chart))
    return 0


def _cmd_synthesize(args, out) -> int:
    chart = _load_scesc(args.spec, args.chart)
    monitor = tr(chart)
    if not args.dense:
        monitor = symbolic_monitor(monitor, name=monitor.name)
    if args.format == "table":
        stats = monitor_stats(monitor)
        out.write(f"monitor {monitor.name}: "
                  f"{stats['states']} states, "
                  f"{stats['transitions']} transitions "
                  f"(forward {stats['forward_edges']}, "
                  f"backward {stats['backward_edges']})\n")
        for transition in sorted(
            monitor.transitions, key=lambda t: (t.source, t.target)
        ):
            out.write(f"  {transition.source} -> {transition.target}: "
                      f"{transition.label()}\n")
    elif args.format == "dot":
        out.write(monitor_to_dot(monitor))
        out.write("\n")
    elif args.format == "verilog":
        out.write(monitor_to_verilog(monitor).source)
    elif args.format == "sva":
        out.write(chart_to_sva(ScescChart(chart)))
    elif args.format == "psl":
        out.write(chart_to_psl(ScescChart(chart)))
    elif args.format == "python":
        out.write(monitor_to_python(monitor))
    return 0


def _load_wavedrom_trace(args, chart, out):
    """The single WaveDrom trace a ``check`` invocation operates on.

    VCD sources instead go through :func:`_check_vcd` as mask arrays,
    never as a trace.
    """
    with open(args.trace) as stream:
        trace = wavedrom_to_trace(json.load(stream))
    _note_missing_lanes(chart, trace.alphabet, args.trace, out)
    return trace


def _note_missing_lanes(chart, alphabet, label, out) -> None:
    missing = chart.alphabet() - alphabet
    if missing:
        out.write(f"note: {label} lacks lanes for {sorted(missing)} "
                  "(treated as constant low)\n")


def _validate_check_args(args) -> None:
    if bool(args.trace) == bool(args.vcd):
        raise ReproError(
            "check needs exactly one trace source: a WaveDrom trace "
            "argument or --vcd DUMP (repeatable)"
        )
    if args.vcd and args.clock is None and args.period is None:
        # Event sampling (one tick per timestamp) silently skips ticks
        # where nothing changed — almost never what a chart over a
        # synchronous protocol means.  Make the discipline explicit.
        raise ReproError(
            "--vcd needs a sampling discipline: --clock SIGNAL (rising "
            "edges) or --period N (fixed grid; 1 recovers trace_to_vcd "
            "output)"
        )
    if args.trace and (args.clock is not None or args.period is not None
                       or args.bind or args.jobs != 1
                       or args.cache is not None):
        # These flags only shape VCD ingestion; accepting them with a
        # WaveDrom trace would silently compute a verdict with none of
        # them applied.
        raise ReproError(
            "--clock/--period/--bind/--jobs/--cache apply to --vcd "
            "dumps only, not to a WaveDrom trace"
        )
    if args.jobs < 0:
        raise ReproError(f"--jobs must be >= 0 (got {args.jobs})")
    backend = engine_backend(args.engine) if args.engine != AUTO else None
    if args.jobs != 1 and backend is not None \
            and not backend.sharded_worker:
        raise ReproError(
            "--jobs needs --engine "
            + ", ".join(backend_names("sharded_worker"))
        )
    if args.optimize and backend is not None and not backend.optimize_ok:
        # The pipeline's artifact is a compiled dispatch table; the
        # interpreted backend exists as the unoptimized reference.
        raise ReproError(
            "--optimize needs --engine "
            + ", ".join(backend_names("optimize_ok"))
        )
    if args.cache is not None and backend is not None \
            and not backend.batch:
        # Cached entries are mask arrays over the compiled codec; the
        # interpreted engine steps guard trees on valuations.
        raise ReproError(
            "--cache needs --engine " + ", ".join(backend_names("batch"))
        )


def _write_stream_report(out, path, report) -> bool:
    truncated = (
        f" (first {len(report.detections)} of {report.n_detections})"
        if report.n_detections > len(report.detections) else ""
    )
    out.write(f"{path}: {report.ticks} ticks; "
              f"detections at {report.detections}{truncated}\n")
    return report.accepted


def _check_vcd(args, chart, out) -> int:
    """Check every dump, sharded if asked.

    Table engines read each dump into masks in bounded blocks and
    check them in the planned batch kernel; with ``--jobs N`` and no
    ``--cache`` each worker process parses *and* checks its own dumps.
    The interpreted engine streams decoded valuations, in-process.
    """
    from repro.trace.shard import run_sharded_vcd
    from repro.trace.streaming import StreamingChecker
    from repro.trace.vcd_reader import SignalBinding, VcdReader

    binding = SignalBinding.parse(args.bind) if args.bind else None
    for path in args.vcd:
        # Header-only parse: surfaces missing lanes (and unreadable
        # files) before any worker fans out.
        with VcdReader(path, binding=binding) as reader:
            _note_missing_lanes(
                chart, reader.alphabet(clock=args.clock), path, out
            )
    backend = engine_backend(args.engine) if args.engine != AUTO else None
    if backend is None or backend.wants_compiled:
        reports = run_sharded_vcd(
            _compiled_for_check(args, chart), args.vcd, jobs=args.jobs,
            clock=args.clock, period=args.period, binding=binding,
            engine=args.engine, cache=args.cache,
        )
    else:
        # The interpreted reference walks guard trees on the raw
        # synthesis output, in-process.
        monitor = tr(chart)
        reports = []
        for path in args.vcd:
            with VcdReader(path, binding=binding) as reader:
                reports.append(
                    StreamingChecker(monitor, engine=args.engine).feed(
                        reader.valuations(clock=args.clock,
                                          period=args.period)
                    )
                )
    status = 0
    for path, report in zip(args.vcd, reports):
        if not _write_stream_report(out, path, report):
            status = 3
    return status


def _compiled_for_check(args, chart):
    """The compiled monitor a ``check`` run dispatches on."""
    if args.optimize:
        from repro.optimize import optimize_monitor

        return optimize_monitor(tr(chart)).compiled
    return tr_compiled(chart)


def _cmd_check(args, out) -> int:
    chart = _load_scesc(args.spec, args.chart)
    _validate_check_args(args)
    if args.vcd:
        return _check_vcd(args, chart, out)
    trace = _load_wavedrom_trace(args, chart, out)
    backend = engine_backend(args.engine) if args.engine != AUTO else None
    if backend is not None and not backend.batch:
        result = run_monitor(tr(chart), trace)
    else:
        compiled = _compiled_for_check(args, chart)
        plan = plan_execution(compiled, Workload.from_traces([trace]),
                              args.engine, capability="batch",
                              error_cls=ReproError)
        result = plan.batch_runner()(compiled, [trace])[0]
    out.write(f"{args.trace}: {trace.length} ticks; "
              f"detections at {result.detections}\n")
    return 0 if result.accepted else 3


def _cmd_ingest(args, out) -> int:
    """Convert dumps to columnar form, cache- or file-addressed."""
    from repro.cache import CorpusCache
    from repro.trace.columnar import codec_fingerprint, ingest_vcd
    from repro.trace.vcd_reader import SignalBinding

    chart = _load_scesc(args.spec, args.chart)
    if not args.vcd:
        raise ReproError("ingest needs at least one --vcd DUMP")
    if args.clock is None and args.period is None:
        raise ReproError(
            "ingest needs a sampling discipline: --clock SIGNAL or "
            "--period N (the same one the later check will use)"
        )
    if args.out and len(args.vcd) != 1:
        raise ReproError("--out writes one file; pass exactly one --vcd")
    if not args.out and not args.cache:
        raise ReproError("ingest needs a destination: --cache DIR or "
                         "--out FILE")
    if args.engine != AUTO:
        # Validated against the registry (the .rtrc output itself is
        # backend-agnostic; this catches a later-check mismatch early).
        require_backend(args.engine, "batch", error_cls=ReproError)
    compiled = _compiled_for_check(args, chart)
    binding = SignalBinding.parse(args.bind) if args.bind else None
    cache = CorpusCache(args.cache) if args.cache else None
    out.write(f"codec: {len(compiled.codec.symbols)} symbols, "
              f"fingerprint {codec_fingerprint(compiled.codec)[:16]}\n")
    for path in args.vcd:
        columns, hit, entry_path = ingest_vcd(
            path, compiled.codec, cache=cache, binding=binding,
            clock=args.clock, period=args.period, refresh=args.force,
        )
        if args.out:
            dest = columns.save(args.out)
        else:
            dest = entry_path
        out.write(
            f"{path}: {columns.total_ticks} ticks over "
            f"{len(columns.symbols)} symbols -> {dest} "
            f"({'cached' if hit else 'parsed'})\n"
        )
    return 0


def _cmd_campaign(args, out) -> int:
    from repro.campaign import CoverageCampaign, FaultMutationCampaign

    chart = _load_scesc(args.spec, args.chart)
    if not (0.0 <= args.target_coverage <= 1.0):
        raise ReproError(
            f"--target-coverage must be in [0, 1] "
            f"(got {args.target_coverage})"
        )
    if args.budget <= 0:
        raise ReproError(f"--budget must be positive (got {args.budget})")
    backend = resolve_step_backend(args.engine, error_cls=ReproError)
    if args.optimize:
        from repro.optimize import optimize_monitor

        optimized = optimize_monitor(tr(chart))
        monitor = (optimized.compiled if backend.wants_compiled
                   else optimized.monitor)
    else:
        monitor = (tr_compiled(chart) if backend.wants_compiled
                   else tr(chart))
    campaign = CoverageCampaign(
        chart, monitor=monitor, seed=args.seed, jobs=args.jobs,
    )
    report = campaign.run(
        target_state_coverage=args.target_coverage,
        target_transition_coverage=args.target_coverage,
        budget=args.budget,
        seed_traces=args.seed_traces,
    )
    fault_report = None
    if args.faults:
        fault_report = FaultMutationCampaign(
            monitor, seed=args.seed, synthesizer=campaign.synthesizer,
        ).run(jobs=args.jobs, random_mutations=args.faults)
    exported: List[str] = []
    if args.export_vcd:
        exported = report.export_vcd(args.export_vcd)
    exported_columnar = None
    if args.export_columnar:
        exported_columnar = report.export_columnar(
            args.export_columnar, alphabet=monitor.alphabet
        )
    ok = report.reached and (fault_report is None or fault_report.ok)
    if args.json:
        document = report.to_json()
        if fault_report is not None:
            document["faults"] = fault_report.to_json()
        if args.export_vcd:
            document["exported_vcd"] = exported
        if exported_columnar is not None:
            document["exported_columnar"] = exported_columnar
        out.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return 0 if ok else 3
    coverage = report.coverage
    out.write(
        f"campaign {report.name}: "
        f"{'closure reached' if report.reached else 'closure NOT reached'} "
        f"— {report.state_coverage:.1%} states, "
        f"{report.transition_coverage:.1%} transitions "
        f"(target {args.target_coverage:.1%}) in {report.traces_executed} "
        f"traces / {report.ticks_executed} ticks "
        f"({report.directed_traces} directed, {report.rounds} round(s), "
        f"budget {report.budget})\n"
    )
    out.write(
        f"  excluded as unreachable: {len(coverage.excluded_states)} "
        f"state(s), {len(coverage.excluded_transitions)} transition(s)\n"
    )
    open_states = coverage.uncovered_states()
    open_transitions = coverage.uncovered_transitions()
    if open_states or open_transitions:
        out.write(f"  still open: states {open_states}, "
                  f"{len(open_transitions)} transition(s)\n")
    if not report.exploration_exhaustive:
        out.write("  note: reachability search truncated — nothing "
                  "excluded; raise scoreboard_cap/max_depth\n")
    if fault_report is not None:
        out.write(
            f"faults: {fault_report.n_trials} trial(s), "
            f"{fault_report.n_killed} killed "
            f"({fault_report.kill_rate:.0%}), "
            f"{len(fault_report.mismatches)} prediction mismatch(es)\n"
        )
        for mismatch in fault_report.mismatches:
            out.write(f"  MISMATCH {mismatch}\n")
    if exported:
        out.write(f"exported {len(exported)} VCD dump(s) to "
                  f"{args.export_vcd}\n")
    if exported_columnar is not None:
        out.write(f"exported columnar corpus ({len(report.corpus)} "
                  f"trace(s)) to {exported_columnar}\n")
    return 0 if ok else 3


def _cmd_serve(args, out) -> int:
    """Load the bank once, then multiplex streams until interrupted."""
    import asyncio

    from repro.serve import MonitorService, ServeConfig

    backend = engine_backend(args.engine) if args.engine != AUTO else None
    if args.optimize and backend is not None and not backend.optimize_ok:
        raise ReproError(
            "--optimize needs --engine "
            + ", ".join(backend_names("optimize_ok"))
        )
    wants_compiled = backend.wants_compiled if backend is not None else True
    monitors = {}
    for name in args.charts:
        chart = _load_scesc(args.spec, name)
        if args.optimize:
            from repro.optimize import optimize_monitor

            monitors[name] = optimize_monitor(tr(chart)).compiled
        elif wants_compiled:
            monitors[name] = tr_compiled(chart)
        else:
            monitors[name] = tr(chart)
    service = MonitorService(monitors, ServeConfig(
        host=args.host, port=args.port, engine=args.engine,
        jobs=args.jobs, queue_chunks=args.queue_chunks,
        shed_slow=args.shed_slow, max_streams=args.max_streams,
        cache_root=args.cache,
    ))

    async def _run():
        host, port = await service.start()
        out.write(f"serving {len(monitors)} monitor(s) on {host}:{port} "
                  f"(engine {args.engine}; GET /health, /metrics)\n")
        getattr(out, "flush", lambda: None)()
        try:
            await service.serve_forever()
        finally:
            await service.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        out.write("interrupted; shutting down\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "render": _cmd_render,
        "synthesize": _cmd_synthesize,
        "check": _cmd_check,
        "ingest": _cmd_ingest,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args, out)
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2
    except FileNotFoundError as error:
        out.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
