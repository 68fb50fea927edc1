"""The traced run: per-layer self times and counts for every workload.

Separate from the end-to-end runs, whose numbers never come from here.
Each workload is replayed in-process through the public entry point of
every layer it crosses; the benchmark's own code wraps each call in a
span (name, start, end, parent, run id — one run id per workload), and
intermediate results are materialised between stages, so a layer's
span holds that layer's work alone.  Spans stay in memory and are
written to ``perfbench/out/`` when the run ends.

A layer's self time is its span minus what its child spans cover.
Spans marked *probe* measure something the replayed command does not
itself do (a tokenize-only pass that splits tokenizing from sampling,
every kernel backend on the same batch, a cold compile); they are
reported but left out of ``unattributed_s``, which is the untraced
wall of the same operations minus the self times of the replay.

CLI operations run the real ``repro.cli.main(argv)`` in-process as the
parent span.  For its duration, the layer entry points it looks up at
call time are swapped for span-wrapped ones, so the cache's read and
write paths run the program's own ``ingest_vcd`` and
``check_vcd_cached``.  Only the no-cache streaming pipeline behind
``run_sharded_vcd`` is replaced, by a staged replay through the same
public functions that splits tokenize, sample, encode and feed.  The
CLI's own report, checked against the reference, comes out of the
traced path either way.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from statistics import median
from types import SimpleNamespace
from typing import Dict, List, Optional

import inputs
from common import (
    Context,
    ServeProcess,
    check_reports_ok,
    detections_match,
    metric,
    run_cli,
)
from workloads import (
    CorpusCache,
    ServeClient,
    ServeInputs,
    VcdCheck,
    close_ok,
    corpus_ok,
)

ENGINES = ("compiled", "vector", "native")


class Tracer:
    """In-memory spans; single-threaded, strictly nested."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.run_id: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        record = {"name": name, "run": self.run_id, "probe": probe,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter_ns(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, function, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return traced

    def self_times(self, run_id: str) -> Dict[str, float]:
        """Seconds of self time per span name within one run."""
        covered = [0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = {}
        for index, record in enumerate(self.spans):
            if record["run"] == run_id:
                own = record["end"] - record["start"] - covered[index]
                totals[record["name"]] = totals.get(record["name"], 0) \
                    + own / 1e9
        return totals

    def replay_total(self, run_id: str) -> float:
        """Self time of every non-probe span of one run, in seconds."""
        covered = [0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        return sum(
            record["end"] - record["start"] - covered[index]
            for index, record in enumerate(self.spans)
            if record["run"] == run_id and not record["probe"]
        ) / 1e9


@contextlib.contextmanager
def patched(*swaps):
    """Temporarily set ``(owner, attribute, value)`` triples.

    The saved value is the owner's own entry, so a class keeps its
    ``classmethod`` descriptors when the swap is undone.
    """
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in swaps]
    for owner, name, value in swaps:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


class _KernelSpan:
    """An execution plan whose encoded runner runs inside a span."""

    def __init__(self, plan, tracer: Tracer, name: str):
        self._plan = plan
        self._tracer = tracer
        self._name = name

    def __getattr__(self, attribute):
        return getattr(self._plan, attribute)

    def encoded_runner(self):
        return self._tracer.wrap(self._plan.encoded_runner(), self._name)


class Replay:
    """Span-wrapped layer entry points for in-process CLI runs, plus counts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Dict[str, int] = {}
        self.plans: Dict[str, str] = {}
        self.reader_class = None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- the layers the CLI resolves at call time ---------------------------
    def cli_swaps(self):
        """Put every layer call ``repro.cli.main`` makes inside a span.

        Each function below is looked up by its caller when called, so
        swapping the module or class attribute for a span-wrapped one
        times the program's own call.  Only the no-cache streaming path
        is replaced, by :meth:`stream_dump`.
        """
        import repro.cache as store
        import repro.cli as cli
        import repro.runtime.engines as engines
        import repro.trace.columnar as columnar
        import repro.trace.shard as shard
        import repro.trace.vcd_reader as vcd_reader

        tracer = self.tracer
        span, wrap = tracer.span, tracer.wrap
        reader = self.reader_class = vcd_reader.VcdReader
        run_sharded_vcd = shard.run_sharded_vcd
        parse_text = columnar.masks_from_vcd_text
        ingest_vcd = columnar.ingest_vcd
        plan_execution = engines.plan_execution
        columns = columnar.ColumnarTraceSet

        class HeaderReader(reader):
            """The CLI's header-only pass, timed."""

            def __init__(self, *args, **kwargs):
                with span("trace.vcd_reader.header"):
                    super().__init__(*args, **kwargs)

            def alphabet(self, clock=None):
                with span("trace.vcd_reader.header"):
                    return super().alphabet(clock=clock)

        def parse(text, codec, *args, jobs=1, **kwargs):
            # The delta parser reads the header with a reader of its
            # own, which is not the CLI's header-only pass.
            fanned = shard.resolve_jobs(jobs) > 1
            with patched((vcd_reader, "VcdReader", reader)), \
                    span("trace.shard.fanout_parse" if fanned
                         else "trace.columnar.delta_parse"):
                return parse_text(text, codec, *args, jobs=jobs, **kwargs)

        def ingest(*args, **kwargs):
            with span("trace.columnar.ingest"):
                loaded, hit, entry_path = ingest_vcd(*args, **kwargs)
            self.count("cache_hits" if hit else "cache_misses")
            return loaded, hit, entry_path

        def plan(monitor, workload=None, *args, **kwargs):
            with span("runtime.engines.plan"):
                chosen = plan_execution(monitor, workload, *args, **kwargs)
            label = f"w{workload.n_traces}"
            self.plans[label] = f"{chosen.engine} — {chosen.reason}"
            return _KernelSpan(chosen, tracer, f"runtime.kernel.{label}")

        def check_dumps(monitor, paths, cache=None, **kwargs):
            if cache is not None:
                return run_sharded_vcd(monitor, paths, cache=cache, **kwargs)
            return [self.stream_dump(monitor, path, **kwargs)
                    for path in paths]

        from_bytes = vars(columns)["from_bytes"].__func__
        return patched(
            (cli, "parse_cesc", wrap(cli.parse_cesc, "cesc.parse")),
            (cli, "tr_compiled", wrap(cli.tr_compiled,
                                      "synthesis.tr_compiled")),
            (vcd_reader, "VcdReader", HeaderReader),
            (shard, "run_sharded_vcd", check_dumps),
            (columnar, "ingest_vcd", ingest),
            (columnar, "masks_from_vcd_text", parse),
            (columnar, "hashlib", SimpleNamespace(
                sha256=wrap(hashlib.sha256, "cache.hash"))),
            (columnar, "corpus_key", wrap(columnar.corpus_key,
                                          "cache.hash")),
            (store.CorpusCache, "load_bytes", wrap(
                store.CorpusCache.load_bytes, "cache.load")),
            (store.CorpusCache, "store_bytes", wrap(
                store.CorpusCache.store_bytes, "cache.store")),
            (columns, "from_bytes", classmethod(wrap(
                from_bytes, "trace.columnar.from_bytes"))),
            (columns, "to_bytes", wrap(columns.to_bytes,
                                       "trace.columnar.to_bytes")),
            (engines, "plan_execution", plan),
        )

    def stream_dump(self, monitor, path, clock=None, period=None,
                    binding=None, engine="auto", **_):
        """No-cache ``check --vcd`` on one dump, stage by stage.

        The program streams ``VcdReader.valuations()`` into
        ``StreamingChecker.feed`` in one pass; here tokenize, sample,
        encode and feed run one after another, each in its own span.
        """
        from repro.runtime.compiled import as_compiled
        from repro.runtime.engines import plan_streaming
        from repro.trace.streaming import StreamingChecker

        span = self.tracer.span
        compiled = as_compiled(monitor)
        with span("trace.vcd_reader.tokenize", probe=True):
            with self.reader_class(path, binding=binding) as reader:
                for _ in reader.changes():
                    pass
        with span("trace.vcd_reader.valuations"):
            with self.reader_class(path, binding=binding) as reader:
                valuations = list(reader.valuations(clock=clock,
                                                    period=period))
        with span("logic.codec.encode"):
            encode = compiled.codec.encode
            masks = [encode(valuation) for valuation in valuations]
        with span("runtime.engines.plan"):
            self.plans["streaming"] = plan_streaming(engine)
        with span("trace.streaming.feed"):
            return StreamingChecker(compiled, engine=engine).feed_masks(masks)

    def cli_main(self, args: List[str]):
        """The real ``repro.cli.main`` in-process, as the parent span."""
        import repro.cli as cli

        out = io.StringIO()
        with self.cli_swaps():
            with self.tracer.span("cli.main"):
                status = cli.main(list(args), out=out)
        text = out.getvalue()
        self.count("cli_output_bytes", len(text.encode("utf-8")))
        return status, text


# -- helpers ----------------------------------------------------------------
def _layer_metrics(prefix: str, self_times: Dict[str, float],
                   spans: List[str]) -> dict:
    """``{prefix.span_s: self seconds}`` for each named span."""
    return {f"{prefix}.{span}_s": metric(self_times.get(span, 0.0), "s")
            for span in spans}


def _kernel_probes(tracer: Tracer, ctx: Context, compiled, label: str,
                   batches, references) -> None:
    """Every batch backend over the same pre-encoded batches, checked."""
    from repro.runtime.engines import backend

    for engine in ENGINES:
        runner = backend(engine).encoded_runner()
        with tracer.span(f"runtime.kernel.{label}.{engine}", probe=True):
            results = [runner(compiled, batch) for batch in batches]
        got = [list(r.detections) for batch in results for r in batch]
        ctx.tally.record(
            all(detections_match(d, None, ref)
                for d, ref in zip(got, references))
            and len(got) == len(references),
            f"kernel {label} {engine} verdicts")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _subprocess_median(ctx: Context, code: str, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=ctx.env,
                       cwd=ctx.root, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return median(times)


def _src_lines(root: str) -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as f:
                    total += sum(1 for line in f if line.strip())
    return total


# -- global probes ------------------------------------------------------------
_FILL_SO_CACHE = (
    "from repro.protocols.ocp.charts import ocp_simple_read_chart\n"
    "from repro.runtime.native import native_kernel\n"
    "from repro.synthesis.tr import tr_compiled\n"
    "if native_kernel(tr_compiled(ocp_simple_read_chart())) is None:\n"
    "    raise SystemExit('perfbench: the native kernel did not build')\n"
)


def global_metrics(ctx: Context, tracer: Tracer, notes: List[str]) -> dict:
    from repro.runtime.native import native_kernel, unavailable_reason
    from repro.synthesis.tr import tr_compiled

    out = {}
    bare = _subprocess_median(ctx, "pass", 5)
    cli_import = _subprocess_median(ctx, "import repro.cli", 5)
    out["cli.import_s"] = metric(cli_import - bare, "s")
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(int('numpy' in sys.modules))"],
        env=ctx.env, cwd=ctx.root, check=True, capture_output=True,
        text=True).stdout.strip()
    out["cli.import_numpy"] = metric(int(loaded), "count")
    out["src.lines"] = metric(_src_lines(ctx.root), "count")
    reason = unavailable_reason()
    if reason is not None:
        notes.append(f"runtime.native.* absent: {reason}")
        return out
    chart = inputs.CHARTS["ocp"][0]()
    tracer.run_id = "global"
    warm = os.environ["REPRO_NATIVE_CACHE"]
    os.environ["REPRO_NATIVE_CACHE"] = ctx.path("so-cold")
    try:
        compiled = tr_compiled(chart)
        with tracer.span("runtime.native.build", probe=True) as built:
            native_kernel(compiled)
    finally:
        os.environ["REPRO_NATIVE_CACHE"] = warm
    # A child process fills the warm cache, so the load timed here is
    # this process's first load of that shared object, as in a fresh
    # CLI or server process.
    subprocess.run([sys.executable, "-c", _FILL_SO_CACHE], env=ctx.env,
                   cwd=ctx.root, check=True)
    compiled = tr_compiled(chart)
    with tracer.span("runtime.native.load", probe=True) as loaded_span:
        native_kernel(compiled)
    for name, record in (("build", built), ("load", loaded_span)):
        out[f"runtime.native.{name}_s"] = metric(
            (record["end"] - record["start"]) / 1e9, "s")
    return out


# -- the workloads ------------------------------------------------------------
def trace_vcd_check(ctx: Context, tracer: Tracer, plans: dict,
                    cli_import_s: float) -> dict:
    from repro.synthesis.tr import tr_compiled
    from repro.trace.columnar import masks_from_vcd

    work = VcdCheck(ctx)
    replay = Replay(tracer)
    tracer.run_id = "vcd_check"
    for chart, path, ticks, reference in work.dumps:
        args = work.check_args(chart, [path])
        status, text = replay.cli_main(args)
        ctx.tally.record(check_reports_ok(text, status,
                                          {path: (ticks, reference)}),
                         f"traced check {path}")
        codec = tr_compiled(chart.chart).codec
        with tracer.span("trace.columnar.delta_parse", probe=True):
            masks_from_vcd(path, codec, clock=inputs.CLOCK, jobs=1)
    plans["streaming"] = replay.plans.get("streaming")
    wall = sum(run_cli(ctx, work.check_args(chart, [path]))[0]
               for chart, path, _, _ in work.dumps)
    times = tracer.self_times("vcd_check")
    tokenize = times.get("trace.vcd_reader.tokenize", 0.0)
    times["trace.vcd_reader.sample"] = \
        times.pop("trace.vcd_reader.valuations", 0.0) - tokenize
    out = _layer_metrics("vcd_check", times, [
        "cli.main",
        "cesc.parse",
        "synthesis.tr_compiled",
        "trace.vcd_reader.header",
        "trace.vcd_reader.tokenize",
        "trace.vcd_reader.sample",
        "logic.codec.encode",
        "runtime.engines.plan",
        "trace.streaming.feed",
        "trace.columnar.delta_parse",
    ])
    unattributed = wall - tracer.replay_total("vcd_check") \
        - len(work.dumps) * cli_import_s
    out["vcd_check.unattributed_s"] = metric(unattributed, "s")
    dumps = [path for _, path, _, _ in work.dumps]
    out.update({
        "vcd_check.ticks": metric(sum(t for _, _, t, _ in work.dumps),
                                  "count"),
        "vcd_check.dumps": metric(len(dumps), "count"),
        "vcd_check.vcd_bytes": metric(sum(map(os.path.getsize, dumps)),
                                      "count"),
        "vcd_check.cli_output_bytes": metric(
            replay.counts.get("cli_output_bytes", 0), "count"),
    })
    return out


def trace_corpus_cache(ctx: Context, tracer: Tracer, plans: dict,
                       cli_import_s: float) -> dict:
    from repro.synthesis.tr import tr_compiled
    from repro.trace.columnar import ColumnarTraceSet, masks_from_vcd

    work = CorpusCache(ctx)
    os.makedirs(work.cache)
    replay = Replay(tracer)
    tracer.run_id = "corpus_cache"
    status, text = replay.cli_main(work.ingest_args())
    ctx.tally.record(work.ingest_ok(status, text), "traced ingest")
    rtrc_bytes = sum(os.path.getsize(os.path.join(work.cache, name))
                     for name in os.listdir(work.cache))
    status, text = replay.cli_main(
        work.check_args(work.chart, work.dumps, work.cache))
    ctx.tally.record(check_reports_ok(text, status, work.expected),
                     "traced check --cache")
    plans["w1"] = replay.plans.get("w1")
    compiled = tr_compiled(work.chart.chart)
    # The ingest CLI's default, one parse worker per core.
    with tracer.span("trace.shard.fanout_parse", probe=True):
        for path in work.dumps:
            masks_from_vcd(path, compiled.codec, clock=inputs.CLOCK, jobs=0)
    lanes = ColumnarTraceSet.from_mask_arrays(
        work.masks, work.chart.symbols).mask_arrays()
    _kernel_probes(tracer, ctx, compiled, "w1",
                   [[lane] for lane in lanes],
                   [work.expected[path][1] for path in work.dumps])
    # The untraced wall of the same two commands, cold then warm.
    for name in os.listdir(work.cache):
        os.remove(os.path.join(work.cache, name))
    wall = run_cli(ctx, work.ingest_args())[0] + run_cli(
        ctx, work.check_args(work.chart, work.dumps, work.cache))[0]
    times = tracer.self_times("corpus_cache")
    out = _layer_metrics("corpus_cache", times, [
        "cli.main",
        "cesc.parse",
        "synthesis.tr_compiled",
        "trace.vcd_reader.header",
        "cache.hash",
        "cache.load",
        "cache.store",
        "trace.shard.fanout_parse",
        "trace.columnar.delta_parse",
        "trace.columnar.ingest",
        "trace.columnar.to_bytes",
        "trace.columnar.from_bytes",
        "runtime.engines.plan",
        "runtime.kernel.w1",
        *(f"runtime.kernel.w1.{engine}" for engine in ENGINES),
    ])
    out["corpus_cache.unattributed_s"] = metric(
        wall - tracer.replay_total("corpus_cache") - 2 * cli_import_s, "s")
    counts = replay.counts
    out.update({
        "corpus_cache.ticks": metric(sum(map(len, work.masks)), "count"),
        "corpus_cache.dumps": metric(len(work.dumps), "count"),
        "corpus_cache.vcd_bytes": metric(
            sum(map(os.path.getsize, work.dumps)), "count"),
        "corpus_cache.rtrc_bytes": metric(rtrc_bytes, "count"),
        "corpus_cache.cache_hits": metric(counts.get("cache_hits", 0),
                                          "count"),
        "corpus_cache.cache_misses": metric(counts.get("cache_misses", 0),
                                            "count"),
        "corpus_cache.cli_output_bytes": metric(
            counts.get("cli_output_bytes", 0), "count"),
    })
    return out


def _replay_stream(tracer: Tracer, compiled, stream) -> dict:
    """One stream through the server's per-push path, stage by stage."""
    from repro.logic.valuation import Valuation
    from repro.serve.protocol import (
        decode_request,
        encode_message,
        ticks_from_wire,
    )
    from repro.trace.streaming import StreamingChecker

    span = tracer.span
    with span("serve.protocol.decode"):
        messages = [decode_request(line.strip()) for line in stream.pushes]
    with span("serve.protocol.ticks_from_wire"):
        payloads = [ticks_from_wire(message.get("ticks"))
                    for message in messages]
    with span("logic.valuation.build"):
        chunks = [[Valuation(tick) for tick in payload]
                  for payload in payloads]
    with span("trace.streaming.push_chunk"):
        checker = StreamingChecker(compiled)
        for chunk in chunks:
            checker.push_chunk(chunk)
        report = checker.report()
    with span("serve.protocol.encode"):
        for payload in payloads:
            encode_message({"ok": True, "stream": stream.stream_id,
                            "accepted": len(payload)})
        document = {"ok": True, "stream": stream.stream_id, "report": {
            "name": report.name, "ticks": report.ticks,
            "detections": list(report.detections),
            "n_detections": report.n_detections}}
        encode_message(document)
    return document


def trace_serve(ctx: Context, tracer: Tracer, plans: dict) -> dict:
    from repro.cesc.parser import parse_cesc
    from repro.runtime.engines import Workload, plan_execution
    from repro.serve.protocol import encode_message
    from repro.synthesis.tr import tr_compiled
    from repro.trace.columnar import ColumnarTraceSet

    data = ServeInputs(ctx)
    chart = data.chart
    tracer.run_id = "serve"
    span = tracer.span
    with span("cesc.parse"):
        with open(chart.spec_path) as stream:
            spec = parse_cesc(stream.read())
    with span("synthesis.tr_compiled"):
        compiled = tr_compiled(spec.charts[chart.name])
    for stream in data.streams:
        document = _replay_stream(tracer, compiled, stream)
        ctx.tally.record(close_ok(document, stream.ticks, stream.reference),
                         f"traced stream {stream.stream_id}")
    for width, path, _, lanes, references in data.corpora:
        with span("trace.columnar.load"):
            columns = ColumnarTraceSet.load(path)
            mask_arrays = columns.mask_arrays()
        with span("runtime.engines.plan"):
            plan = plan_execution(compiled, Workload.from_traces(mask_arrays),
                                  "auto", capability="batch")
        plans[f"w{width}"] = f"{plan.engine} — {plan.reason}"
        with span(f"runtime.kernel.w{width}"):
            results = plan.encoded_runner()(compiled, mask_arrays)
        with span("serve.protocol.encode"):
            answer = {"ok": True, "reports": [
                {"trace": index, "ticks": result.ticks,
                 "accepted": result.accepted,
                 "n_detections": len(result.detections),
                 "detections": result.detections[:1000]}
                for index, result in enumerate(results)]}
            encode_message(answer)
        ctx.tally.record(corpus_ok(answer, lanes, references),
                         f"traced corpus w{width}")
        _kernel_probes(tracer, ctx, compiled, f"w{width}", [mask_arrays],
                       references)
    # The untraced wall of the same traffic against a real server.
    client = ServeClient(ctx, data)
    server = ServeProcess(ctx, chart.spec_path, chart.name)
    try:
        async def traffic():
            stream_wall = await client.stream_phase(server)
            # The replay runs one corpus op per width.
            latencies = (await client.corpus_phase(server, 1))[0]
            corpus_wall = sum(map(median, latencies.values()))
            return stream_wall + corpus_wall, \
                await client.server_metrics(server)
        wall, counters = asyncio.run(traffic())
    finally:
        server.stop()
    times = tracer.self_times("serve")
    names = [
        "cesc.parse",
        "synthesis.tr_compiled",
        "serve.protocol.decode",
        "serve.protocol.ticks_from_wire",
        "serve.protocol.encode",
        "logic.valuation.build",
        "trace.streaming.push_chunk",
        "trace.columnar.load",
        "runtime.engines.plan",
    ]
    for width in ctx.size["lanes"]:
        names.append(f"runtime.kernel.w{width}")
        names += [f"runtime.kernel.w{width}.{engine}" for engine in ENGINES]
    out = _layer_metrics("serve", times, names)
    # Server start-up is outside the measured traffic wall.
    startup = times.get("cesc.parse", 0.0) \
        + times.get("synthesis.tr_compiled", 0.0)
    out["serve.unattributed_s"] = metric(
        wall - (tracer.replay_total("serve") - startup), "s")
    pushes = client.push_latencies
    out.update({
        "serve.push_p50_ms": metric(percentile(pushes, 50) * 1e3, "ms"),
        "serve.push_p99_ms": metric(percentile(pushes, 99) * 1e3, "ms"),
        "serve.pushes": metric(len(pushes), "count"),
        "serve.close_ms": metric(median(client.close_latencies) * 1e3,
                                 "ms"),
        "serve.ticks": metric(sum(s.ticks for s in data.streams), "count"),
        "serve.streams": metric(len(data.streams), "count"),
        "serve.rtrc_bytes": metric(
            sum(os.path.getsize(path) for _, path, _, _, _ in data.corpora),
            "count"),
        "serve.ticks_checked": metric(counters["ticks"], "count"),
        "serve.chunks_checked": metric(counters["chunks"], "count"),
        "serve.streams_shed": metric(counters["streams"]["shed"], "count"),
        "serve.protocol_errors": metric(counters["protocol_errors"],
                                        "count"),
    })
    return out


def run(ctx: Context, workload: str) -> dict:
    """Trace all three workloads; ``workload`` only names the output."""
    from repro.trace.shard import shutdown_worker_pools

    tracer = Tracer()
    notes: List[str] = []
    plans: Dict[str, Optional[str]] = {}
    # Materialised stages hold whole dumps alive; cyclic collections
    # over them are a cost the streaming pipeline never pays.
    gc.disable()
    # In-process native builds and temp files stay inside the run dir.
    os.environ["REPRO_NATIVE_CACHE"] = ctx.env["REPRO_NATIVE_CACHE"]
    os.environ["TMPDIR"] = ctx.env["TMPDIR"]
    tempfile.tempdir = None
    try:
        metrics = global_metrics(ctx, tracer, notes)
        cli_import_s = metrics["cli.import_s"]["value"]
        metrics.update(trace_vcd_check(ctx, tracer, plans, cli_import_s))
        gc.collect()
        metrics.update(trace_corpus_cache(ctx, tracer, plans, cli_import_s))
        gc.collect()
        metrics.update(trace_serve(ctx, tracer, plans))
    finally:
        gc.enable()
        shutdown_worker_pools()
    for width, label in plans.items():
        print(f"perfbench: plan {width}: {label}", file=sys.stderr)
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace-{workload}-{ctx.seed}.json"),
              "w") as stream:
        json.dump({"spans": tracer.spans, "plans": plans, "notes": notes,
                   "metrics": metrics}, stream)
    return metrics
