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

This module parses every verb's arguments and runs ``check``; the
handlers of the other verbs live in :mod:`repro.verbs`, imported only
when one of them is dispatched.  A command pays start-up for its own
work: a table-engine ``check --vcd`` imports only the modules it
executes (parse, ``tr_compiled``, the VCD front-end, the planner and
the batch kernel), and the interpreted engine, the streaming checker
and the corpus store load only when a check asks for them
(``--engine interpreted``, ``--cache``).  ``parse_cesc``,
``tr_compiled`` and ``tr`` stay module-level names, and the
trace-pipeline layers are looked up when called, so instrumentation
can swap them by attribute.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cesc.parser import parse_cesc
from repro.errors import ChartError, ReproError
from repro.runtime.engines import (
    AUTO,
    Workload,
    backend as engine_backend,
    backend_names,
    engine_choices,
    plan_execution,
)
from repro.synthesis.tr import tr, tr_compiled

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
        help="stepping backend (default: auto — native when a host C "
             "compiler can build it, else compiled): dense table "
             "dispatch, the reference guard-tree interpreter, "
             "`vector` (compiled's batch runners under their old "
             "name), or the compile-on-demand native C stepper "
             "(needs a host C compiler; identical verdicts)")
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
    # Kept only because perfbench's corpus_cache workload passes it.
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
        "--engine", default=AUTO, choices=engine_choices("step"),
        help="monitor form the campaign covers: the compiled dispatch "
             "table's compressed edges (auto resolves here, the "
             "default) or the dense interpreted automaton")
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
        help="stepping backend for streams (default: auto — one "
             "native call per pushed chunk when a C compiler is "
             "available, the compiled chunk loop otherwise; "
             "per-open overrides still apply)")
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


def _read_text(path: str) -> str:
    """An input file's text; a file that is not UTF-8 is a typed error."""
    with open(path, "rb") as stream:
        data = stream.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ReproError(
            f"{path}: not UTF-8 text (byte {error.start}: {error.reason})"
        ) from None


def _load_scesc(spec_path: str, chart_name: str):
    spec = parse_cesc(_read_text(spec_path))
    if chart_name not in spec.charts:
        known = ", ".join(sorted(spec.charts)) or "(none)"
        raise ReproError(
            f"no SCESC named {chart_name!r} in {spec_path} "
            f"(known charts: {known})"
        )
    return spec.charts[chart_name]


def _load_wavedrom_trace(args, chart, out):
    """The single WaveDrom trace a ``check`` invocation operates on.

    VCD sources instead go through :func:`_check_vcd` as mask arrays,
    never as a trace.
    """
    from repro.visual.wavedrom import wavedrom_to_trace

    try:
        trace = wavedrom_to_trace(_read_text(args.trace))
    except ChartError as error:
        raise ChartError(f"{args.trace}: {error}") from None
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
                       or args.bind or args.cache is not None):
        # These flags only shape VCD ingestion; accepting them with a
        # WaveDrom trace would silently compute a verdict with none of
        # them applied.
        raise ReproError(
            "--clock/--period/--bind/--cache apply to --vcd "
            "dumps only, not to a WaveDrom trace"
        )
    backend = engine_backend(args.engine) if args.engine != AUTO else None
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
    """Check every dump, in this process.

    Table engines read each dump into masks in bounded blocks and
    check them in the planned batch kernel; the interpreted engine
    streams decoded valuations.
    """
    from repro.trace.shard import run_sharded_vcd
    from repro.trace.vcd_reader import SignalBinding, VcdReader

    binding = SignalBinding.parse(args.bind) if args.bind else None
    for path in args.vcd:
        # Header-only parse: surfaces missing lanes (and unreadable
        # files) before any dump is checked.
        with VcdReader(path, binding=binding) as reader:
            _note_missing_lanes(
                chart, reader.alphabet(clock=args.clock), path, out
            )
    backend = engine_backend(args.engine) if args.engine != AUTO else None
    # The interpreted reference walks guard trees on the raw synthesis
    # output.
    monitor = (tr_compiled(chart)
               if backend is None or backend.wants_compiled else tr(chart))
    reports = run_sharded_vcd(
        monitor, args.vcd, clock=args.clock, period=args.period,
        binding=binding, engine=args.engine, cache=args.cache,
    )
    status = 0
    for path, report in zip(args.vcd, reports):
        if not _write_stream_report(out, path, report):
            status = 3
    return status


def _cmd_check(args, out) -> int:
    chart = _load_scesc(args.spec, args.chart)
    _validate_check_args(args)
    if args.vcd:
        return _check_vcd(args, chart, out)
    trace = _load_wavedrom_trace(args, chart, out)
    backend = engine_backend(args.engine) if args.engine != AUTO else None
    if backend is not None and not backend.batch:
        from repro.monitor.engine import run_monitor

        result = run_monitor(tr(chart), trace)
    else:
        compiled = tr_compiled(chart)
        plan = plan_execution(compiled, Workload.from_traces([trace]),
                              args.engine, capability="batch",
                              error_cls=ReproError)
        result = plan.batch_runner()(compiled, [trace])[0]
    out.write(f"{args.trace}: {trace.length} ticks; "
              f"detections at {result.detections}\n")
    return 0 if result.accepted else 3


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args, out)
        from repro import verbs

        return getattr(verbs, args.command)(args, out)
    except (ReproError, OSError) as error:
        # OSError: a missing, unreadable or directory input path (its
        # message names the path).
        out.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
