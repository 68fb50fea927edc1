"""The three end-to-end workloads, measured with tracing off.

Each workload builds its inputs and reference verdicts from the seed,
warms every cache a user would already have warm (the ``.pyc`` files,
the native shared-object cache), then runs *rounds* until the run's
time is up.  A round issues every timed operation once, in an order
rotated per round, so host-speed drift lands on all of them alike.
Every timed operation sits between two speed probes and its wall time
is scaled to the reference host's speed (``SpeedClock``); each metric
is the median of the scaled times over rounds.

Every workload reports the same end-to-end metrics:

``setup_s``      start-up until ready (one-tick-dump commands, or
                 ``repro serve`` spawn until its listening banner);
``check_s``      the workload's checking operation;
``aux_s``        the workload's second operation;
``peak_rss_mb``  peak resident memory of the program.

What ``check_s`` and ``aux_s`` time on each workload is listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from statistics import median
from typing import Dict, List

from repro.serve.protocol import encode_message

import inputs
from common import (
    SERVE_CONNECTIONS,
    Context,
    ServeProcess,
    SpeedClock,
    check_reports_ok,
    connect,
    detections_match,
    metric,
    note,
    request,
    run_cli,
)


def _rounds(ctx: Context, ops: list, measure) -> None:
    """Run ``ops`` (callables) round by round until time is up."""
    deadline = time.perf_counter() + ctx.seconds
    done = 0
    while done < ctx.size["min_rounds"] or time.perf_counter() < deadline:
        shift = done % len(ops)
        for op in ops[shift:] + ops[:shift]:
            measure(op)
        done += 1


class _CliWorkload:
    """Shared plumbing of the two workloads that drive the CLI."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.clock = SpeedClock(ctx)
        #: op name -> scaled times; ``walls`` holds the raw ones.
        self.times: Dict[str, List[float]] = {}
        self.walls: Dict[str, List[float]] = {}
        self.peak_rss_kb = 0

    def invoke(self, name: str, args: List[str], expected, timed=True):
        """One CLI op, checked; ``expected(status, stdout) -> bool``."""
        wall, status, output, rss_kb = run_cli(self.ctx, args)
        ok = self.ctx.tally.record(expected(status, output),
                                   f"{name}: exit {status}: {output[:300]}")
        if timed:
            self.walls.setdefault(name, []).append(wall)
            self.times.setdefault(name, []).append(wall * self.clock.scale())
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return ok

    def timed_rounds(self, ops: list) -> Dict[str, List[float]]:
        """Rounds of ``ops`` after a first probe; the scaled times."""
        self.clock.probe()
        _rounds(self.ctx, ops, lambda op: op())
        note("wall", **self.walls)
        note("scaled", **self.times)
        note("probes", probe=self.clock.probes)
        return self.times

    def check_args(self, chart: "inputs.ChartInputs", paths: List[str],
                   cache: str = None) -> List[str]:
        args = ["check", chart.spec_path, chart.name, "--clock",
                inputs.CLOCK]
        if cache is not None:
            args += ["--cache", cache]
        for path in paths:
            args += ["--vcd", path]
        return args


class VcdCheck(_CliWorkload):
    """``repro check --vcd`` on one long OCP dump and one long AHB dump.

    The default command (auto engine, no cache, one job).  Its time is
    VCD front-end and start-up; the columnar store and the serve stack
    are bypassed, and kernel changes should barely move it.
    """

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.charts = inputs.charts(ctx.seed, ctx.workdir)
        self.ops, self.setups = [], []
        #: (chart, dump path, ticks, reference) of each long dump.
        self.dumps = []
        for key, chart in self.charts.items():
            masks = chart.compose(inputs.rng_for(ctx.seed, f"vcd:{key}"),
                                  ctx.size["vcd_ticks"])
            dump, one = ctx.path(f"{key}.vcd"), ctx.path(f"{key}-1tick.vcd")
            chart.write_dump(dump, masks)
            chart.one_tick_dump(one)
            reference = ctx.expect(chart.reference(masks))
            self.dumps.append((chart, dump, len(masks), reference))
            self.setups.append(self._op(f"setup_{key}", chart, one, 1, []))
            self.ops += [self.setups[-1],
                         self._op(f"check_{key}", chart, dump, len(masks),
                                  reference)]

    def _op(self, name, chart, path, ticks, reference):
        expected = {path: (ticks, reference)}
        args = self.check_args(chart, [path])

        def op(timed=True):
            return self.invoke(
                name, args,
                lambda status, out: check_reports_ok(out, status, expected),
                timed)
        return op

    def run(self) -> dict:
        # The one-tick commands import every module the full checks
        # use, so they leave the .pyc files warm.
        for op in self.setups:
            op(timed=False)
        times = self.timed_rounds(self.ops)
        return {
            "setup_s": metric(median(times["setup_ocp"])
                              + median(times["setup_ahb"]), "s"),
            "check_s": metric(median(times["check_ocp"]), "s"),
            "aux_s": metric(median(times["check_ahb"]), "s"),
            "peak_rss_mb": metric(self.peak_rss_kb / 1024, "MB"),
        }


class CorpusCache(_CliWorkload):
    """A regression-farm corpus of short OCP dumps through the cache.

    A cold ``repro ingest --jobs 1 --cache`` (the write path: delta
    parser, ``.rtrc`` encode, atomic store), then a warm ``repro check
    --cache`` over the same dumps (the read path: hash, lookup, decode
    and crc check, plan, one width-1 kernel per dump).  Per-dump fixed
    costs dominate, not per-tick costs.

    The ingest runs on one core: with the default per-core fan-out it
    needs both cores of a 2-core host at once, and its time swung by
    half between runs as neighbours loaded the machine.  The traced
    run measures the fan-out (``trace.shard.fanout_parse_s``).
    """

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        chart = self.chart = inputs.charts(ctx.seed, ctx.workdir,
                                           keys=("ocp",))["ocp"]
        rng = inputs.rng_for(ctx.seed, "corpus")
        os.makedirs(ctx.path("dumps"))
        self.dumps, self.masks, self.expected = [], [], {}
        for index in range(ctx.size["corpus_dumps"]):
            masks = chart.compose(rng, ctx.size["corpus_ticks"])
            path = ctx.path("dumps", f"d{index:04d}.vcd")
            chart.write_dump(path, masks)
            self.dumps.append(path)
            self.masks.append(masks)
            self.expected[path] = (len(masks),
                                   ctx.expect(chart.reference(masks)))
        self.cache = ctx.path("cache")
        one = ctx.path("ocp-1tick.vcd")
        chart.one_tick_dump(one)
        self.setup_cache = ctx.path("setup-cache")
        self.setup_args = self.check_args(chart, [one], self.setup_cache)
        self.setup_expected = {one: (1, [])}

    def ingest_ok(self, status: int, output: str) -> bool:
        lines = [line for line in output.splitlines() if line.strip()]
        if status != 0 or len(lines) != len(self.dumps) + 1:
            return False
        for path, line in zip(self.dumps, lines[1:]):
            ticks = self.expected[path][0]
            if not line.startswith(f"{path}: {ticks} ticks ") \
                    or not line.endswith("(parsed)"):
                return False
        stored = [name for name in os.listdir(self.cache)
                  if name.endswith(".rtrc")]
        return len(stored) == len(self.dumps)

    def ingest_args(self) -> List[str]:
        args = ["ingest", self.chart.spec_path, self.chart.name, "--jobs",
                "1", "--cache", self.cache, "--clock", inputs.CLOCK]
        for path in self.dumps:
            args += ["--vcd", path]
        return args

    def ingest(self, timed=True):
        for name in os.listdir(self.cache):
            os.remove(os.path.join(self.cache, name))
        return self.invoke("ingest", self.ingest_args(), self.ingest_ok,
                           timed)

    def check(self, timed=True):
        args = self.check_args(self.chart, self.dumps, self.cache)
        return self.invoke(
            "check", args,
            lambda status, out: check_reports_ok(out, status, self.expected),
            timed)

    def setup(self, timed=True):
        return self.invoke(
            "setup", self.setup_args,
            lambda status, out: check_reports_ok(out, status,
                                                 self.setup_expected),
            timed)

    def run(self) -> dict:
        os.makedirs(self.cache)
        # Warms the .pyc files and compiles the native kernel into the
        # shared-object cache.
        self.setup(timed=False)
        # Ingest must precede the warm checks within a round; the
        # shorter check runs twice for as many samples as the rest.
        times = self.timed_rounds([self.setup, lambda: (self.ingest(),
                                                        self.check(),
                                                        self.check())])
        return {
            "setup_s": metric(median(times["setup"]), "s"),
            "check_s": metric(median(times["check"]), "s"),
            "aux_s": metric(median(times["ingest"]), "s"),
            "peak_rss_mb": metric(self.peak_rss_kb / 1024, "MB"),
        }


class Stream:
    """One pre-encoded serve stream and its reference verdict."""

    def __init__(self, stream_id: str, masks: List[int], wire: list,
                 push_ticks: int, reference: List[int]):
        self.stream_id = stream_id
        self.ticks = len(masks)
        self.reference = reference
        self.open = encode_message({"op": "open", "stream": stream_id})
        self.close = encode_message({"op": "close", "stream": stream_id})
        self.pushes = [
            encode_message({"op": "push", "stream": stream_id,
                            "ticks": [wire[mask] for mask in
                                      masks[start:start + push_ticks]]})
            for start in range(0, len(masks), push_ticks)
        ]
        self.push_sizes = [min(push_ticks, len(masks) - start)
                           for start in range(0, len(masks), push_ticks)]


class ServeInputs:
    """Streams and corpora of the serve workload (shared with tracing)."""

    def __init__(self, ctx: Context):
        from repro.trace.columnar import ColumnarTraceSet

        size = ctx.size
        chart = self.chart = inputs.charts(ctx.seed, ctx.workdir,
                                           keys=("ocp",))["ocp"]
        wire = chart.symbol_lists()
        self.streams = []
        for index in range(size["streams"]):
            masks = chart.compose(
                inputs.rng_for(ctx.seed, f"stream{index}"),
                size["stream_ticks"])
            self.streams.append(Stream(
                f"s{index}", masks, wire, size["push_ticks"],
                ctx.expect(chart.reference(masks))))
        self.corpora = []
        for width in size["lanes"]:
            rng = inputs.rng_for(ctx.seed, f"corpus{width}")
            lanes = [chart.compose(rng, size["lane_ticks"])
                     for _ in range(width)]
            path = ctx.path(f"w{width}.rtrc")
            ColumnarTraceSet.from_mask_arrays(lanes, chart.symbols).save(path)
            self.corpora.append((
                width, path, encode_message({"op": "corpus", "path": path}),
                lanes, [ctx.expect(chart.reference(lane)) for lane in lanes],
            ))


def corpus_ok(answer: dict, lanes, references) -> bool:
    reports = answer.get("reports")
    if answer.get("ok") is not True or not isinstance(reports, list) \
            or len(reports) != len(lanes):
        return False
    for report, lane, reference in zip(reports, lanes, references):
        if report.get("ticks") != len(lane) \
                or report.get("accepted") != bool(reference) \
                or not detections_match(report.get("detections", []),
                                        report.get("n_detections"),
                                        reference):
            return False
    return True


def close_ok(answer: dict, ticks: int, reference: List[int]) -> bool:
    report = answer.get("report") or {}
    return (answer.get("ok") is True and report.get("ticks") == ticks
            and "error" not in report
            and detections_match(report.get("detections", []),
                                 report.get("n_detections"), reference))


class ServeClient:
    """The load generator: one process, closed loop, 2 connections."""

    def __init__(self, ctx: Context, data: ServeInputs):
        self.ctx = ctx
        self.data = data
        self.push_latencies: List[float] = []
        self.close_latencies: List[float] = []

    async def _drive(self, reader, writer, streams, n_pushes=None) -> None:
        """Open, round-robin pushes (next after the previous ack), close."""
        for stream in streams:
            _, answer = await request(reader, writer, stream.open)
            if answer.get("ok") is not True:
                raise RuntimeError(f"open refused: {answer}")
        rounds = max(len(stream.pushes) for stream in streams)
        if n_pushes is not None:
            rounds = min(rounds, n_pushes)
        for index in range(rounds):
            for stream in streams:
                if index >= len(stream.pushes):
                    continue
                latency, answer = await request(reader, writer,
                                                stream.pushes[index])
                self.push_latencies.append(latency)
                ok = answer.get("ok") is True \
                    and answer.get("accepted") == stream.push_sizes[index]
                self.ctx.tally.record(ok, f"push {stream.stream_id}: {answer}")
        for stream in streams:
            pushed = sum(stream.push_sizes[:rounds])
            reference = [tick for tick in stream.reference if tick < pushed]
            latency, answer = await request(reader, writer, stream.close)
            self.close_latencies.append(latency)
            self.ctx.tally.record(
                close_ok(answer, pushed, reference),
                f"close {stream.stream_id}: {str(answer)[:300]}")

    async def stream_phase(self, server: ServeProcess,
                           n_pushes=None) -> float:
        """All streams over the connections; first open to last close."""
        connections = [await connect(server.host, server.port)
                       for _ in range(SERVE_CONNECTIONS)]
        try:
            groups = [self.data.streams[i::SERVE_CONNECTIONS]
                      for i in range(SERVE_CONNECTIONS)]
            start = time.perf_counter()
            await asyncio.gather(*(
                self._drive(reader, writer, group, n_pushes)
                for (reader, writer), group in zip(connections, groups)))
            return time.perf_counter() - start
        finally:
            for _, writer in connections:
                writer.close()
                await writer.wait_closed()

    async def corpus_phase(self, server: ServeProcess, rounds: int) -> list:
        """Corpus ops; per round, ``{width: [latency of each op]}``.

        A round issues ``widest / width`` ops at each width, so every
        width checks the same lane-ticks.
        """
        widest = max(width for width, *_ in self.data.corpora)
        reader, writer = await connect(server.host, server.port)
        out = []
        try:
            for _ in range(rounds):
                latencies = {}
                for width, _, line, lanes, references in self.data.corpora:
                    for _ in range(widest // width):
                        latency, answer = await request(reader, writer,
                                                        line)
                        self.ctx.tally.record(
                            corpus_ok(answer, lanes, references),
                            f"corpus w{width}: {str(answer)[:300]}")
                        latencies.setdefault(width, []).append(latency)
                out.append(latencies)
        finally:
            writer.close()
            await writer.wait_closed()
        return out

    async def server_metrics(self, server: ServeProcess) -> dict:
        reader, writer = await connect(server.host, server.port)
        try:
            _, answer = await request(reader, writer,
                                      encode_message({"op": "metrics"}))
        finally:
            writer.close()
            await writer.wait_closed()
        return answer["metrics"]


class Serve:
    """``repro serve`` on the OCP chart, driven in a closed loop.

    Two connections each round-robin their share of the streams, one
    500-tick ``push`` of symbol lists at a time, then ``close``; a
    corpus phase issues ``corpus`` ops on a 32-lane and a 256-lane
    ``.rtrc`` corpus, either side of the planner's 64-lane rule, eight
    of the narrow ones per wide one so both widths check as many
    lane-ticks.  The only workload that reaches the wire protocol, the
    session queues, ``Valuation`` construction and the streaming
    kernel; no VCD parsing.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.data = ServeInputs(ctx)
        self.client = ServeClient(ctx, self.data)
        self.clock = SpeedClock(ctx)
        #: Scaled times per round; ``walls`` holds the raw ones.
        self.startup: List[float] = []
        self.streams: List[float] = []
        #: width -> per round, the median latency of one corpus op.
        self.corpus_ops: Dict[int, List[float]] = {}
        self.walls: Dict[str, List[float]] = {}
        self.peak_rss_kb = 0

    def _scaled(self, name: str, wall: float, scale: float) -> float:
        self.walls.setdefault(name, []).append(wall)
        return wall * scale

    async def _round(self) -> None:
        chart, clock, client = self.data.chart, self.clock, self.client
        # The probes run while the server is idle (or not yet started)
        # and no client task is pending, so blocking the loop delays
        # nothing.
        clock.probe()
        server = ServeProcess(self.ctx, chart.spec_path, chart.name)
        try:
            self.startup.append(self._scaled("startup", server.startup_s,
                                             clock.scale()))
            # Lazy set-up a long-lived server has done before users
            # arrive: NumPy import, kernel load, first-op paths.
            await client.corpus_phase(server, 1)
            await client.stream_phase(server, n_pushes=1)
            clock.probe()
            # Each server serves several stream and corpus phases, so
            # its start-up and warm-up buy more samples.
            for _ in range(self.ctx.size["serve_phases"]):
                wall = await client.stream_phase(server)
                self.streams.append(self._scaled("streams", wall,
                                                 clock.scale()))
                rounds = await client.corpus_phase(
                    server, self.ctx.size["corpus_rounds"])
                scale = clock.scale()
                for width in rounds[0]:
                    self.corpus_ops.setdefault(width, []).append(
                        self._scaled(f"w{width}", median(
                            latency for latencies in rounds
                            for latency in latencies[width]), scale))
            self.peak_rss_kb = max(self.peak_rss_kb, server.peak_rss_kb())
        finally:
            server.stop()

    def run(self) -> dict:
        _rounds(self.ctx, [self._round], lambda op: asyncio.run(op()))
        note("wall", **self.walls)
        note("scaled", startup=self.startup, streams=self.streams,
             **{f"w{width}": ops for width, ops in self.corpus_ops.items()})
        note("probes", probe=self.clock.probes)
        # The geometric mean: a change at either width moves it by the
        # same share, though a w256 op takes far longer than a w32 op.
        widths = [median(ops) for ops in self.corpus_ops.values()]
        return {
            "setup_s": metric(median(self.startup), "s"),
            "check_s": metric(median(self.streams), "s"),
            "aux_s": metric(math.prod(widths) ** (1 / len(widths)), "s"),
            "peak_rss_mb": metric(self.peak_rss_kb / 1024, "MB"),
        }


WORKLOADS = {
    "vcd_check": VcdCheck,
    "corpus_cache": CorpusCache,
    "serve": Serve,
}
