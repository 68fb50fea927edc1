"""The handlers of every CLI verb but ``check``, which :mod:`repro.cli`
imports only to dispatch one of them.  Each takes the parsed arguments
and the output stream and returns the exit status; the spec loader and
``tr``/``tr_compiled`` are looked up on ``repro.cli``, so swapping them
there instruments every verb.
"""

from __future__ import annotations

from typing import List

from repro import cli
from repro.cesc.charts import ScescChart
from repro.errors import ReproError
from repro.runtime.engines import (
    AUTO, backend as engine_backend, require_backend, resolve_step_backend)

__all__ = ["campaign", "ingest", "render", "serve", "synthesize", "validate"]


def validate(args, out) -> int:
    from repro.analysis.consistency import check_consistency
    from repro.cesc.validate import validate_scesc

    spec = cli.parse_cesc(cli._read_text(args.spec))
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


def render(args, out) -> int:
    from repro.visual.ascii_chart import render_scesc

    chart = cli._load_scesc(args.spec, args.chart)
    out.write(render_scesc(chart))
    return 0


def synthesize(args, out) -> int:
    from repro.synthesis.symbolic import symbolic_monitor

    chart = cli._load_scesc(args.spec, args.chart)
    monitor = cli.tr(chart)
    if not args.dense:
        monitor = symbolic_monitor(monitor, name=monitor.name)
    if args.format == "table":
        from repro.monitor.stats import monitor_stats

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
        from repro.monitor.dot import monitor_to_dot

        out.write(monitor_to_dot(monitor))
        out.write("\n")
    elif args.format == "verilog":
        from repro.codegen.verilog import monitor_to_verilog

        out.write(monitor_to_verilog(monitor).source)
    elif args.format == "sva":
        from repro.codegen.sva import chart_to_sva

        out.write(chart_to_sva(ScescChart(chart)))
    elif args.format == "psl":
        from repro.codegen.psl import chart_to_psl

        out.write(chart_to_psl(ScescChart(chart)))
    elif args.format == "python":
        from repro.codegen.python_gen import monitor_to_python

        out.write(monitor_to_python(monitor))
    return 0


def ingest(args, out) -> int:
    """Convert dumps to columnar form, cache- or file-addressed."""
    from repro.cache import CorpusCache
    from repro.trace.columnar import codec_fingerprint, ingest_vcd
    from repro.trace.vcd_reader import SignalBinding

    chart = cli._load_scesc(args.spec, args.chart)
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
    compiled = cli.tr_compiled(chart)
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


def campaign(args, out) -> int:
    from repro.campaign import CoverageCampaign, FaultMutationCampaign

    chart = cli._load_scesc(args.spec, args.chart)
    if not (0.0 <= args.target_coverage <= 1.0):
        raise ReproError(
            f"--target-coverage must be in [0, 1] "
            f"(got {args.target_coverage})"
        )
    if args.budget <= 0:
        raise ReproError(f"--budget must be positive (got {args.budget})")
    backend = resolve_step_backend(args.engine, error_cls=ReproError)
    monitor = (cli.tr_compiled(chart) if backend.wants_compiled
               else cli.tr(chart))
    campaign = CoverageCampaign(chart, monitor=monitor, seed=args.seed)
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
        ).run(random_mutations=args.faults)
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
        import json

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


def serve(args, out) -> int:
    """Load the bank once, then multiplex streams until interrupted."""
    import asyncio

    from repro.serve import MonitorService, ServeConfig

    backend = engine_backend(args.engine) if args.engine != AUTO else None
    wants_compiled = backend.wants_compiled if backend is not None else True
    monitors = {}
    for name in args.charts:
        chart = cli._load_scesc(args.spec, name)
        monitors[name] = (cli.tr_compiled(chart) if wants_compiled
                          else cli.tr(chart))
    service = MonitorService(monitors, ServeConfig(
        host=args.host, port=args.port, engine=args.engine,
        queue_chunks=args.queue_chunks,
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
