"""The asyncio front end: connections, op dispatch, health endpoints.

:class:`MonitorService` owns a *registry* of named monitor specs
(charts, monitors, compiled monitors, banks — anything
:class:`~repro.trace.streaming.StreamingChecker` resolves), loaded
and compiled **once**; every stream a client opens shares those
tables.  One listening port speaks two dialects:

* the newline-delimited JSON data plane of
  :mod:`repro.serve.protocol` — ``open`` / ``push`` / ``push_masks``
  / ``poll`` / ``close`` / ``corpus`` / ``metrics`` / ``ping``;
* plain HTTP ``GET /health`` and ``GET /metrics`` (detected from the
  first request line), so load balancers and ``curl`` need no client
  library.

Memory stays bounded end to end: the stream reader caps one line at
``max_line_bytes``, each stream buffers at most ``queue_chunks``
chunks (:mod:`repro.serve.session`), and ``max_streams`` caps the
stream population.  ``corpus`` answers batch verdicts over a warm
``.rtrc`` corpus — mask arrays go straight from the loaded file into
the planned batch kernel, no re-encode — with detection lists
truncated at :data:`MAX_WIRE_DETECTIONS` per trace (exact counts
always shipped).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Dict, Optional, Set

from repro.errors import ReproError, ServeError
from repro.runtime.engines import (
    AUTO,
    Workload,
    plan_execution,
    require_backend,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_request,
    encode_message,
    error_message,
    masks_from_wire,
    ticks_from_wire,
    ticks_to_masks,
)
from repro.serve.session import DEFAULT_QUEUE_CHUNKS, StreamSession
from repro.trace.streaming import StreamingChecker

__all__ = ["MAX_WIRE_DETECTIONS", "MonitorService", "ServeConfig"]

#: Per-trace cap on detection ticks shipped in a ``corpus`` response.
MAX_WIRE_DETECTIONS = 1000


class ServeConfig:
    """Knobs of one service instance (all bounded-memory relevant)."""

    __slots__ = ("host", "port", "engine", "queue_chunks",
                 "shed_slow", "max_streams", "stop_on_violation",
                 "loop_limit", "cache_root", "max_line_bytes")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: str = AUTO,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
        shed_slow: bool = False,
        max_streams: int = 1024,
        stop_on_violation: bool = True,
        loop_limit: int = 3,
        cache_root: Optional[str] = None,
        max_line_bytes: int = MAX_LINE_BYTES,
    ):
        if engine != AUTO:
            require_backend(engine, "streaming", error_cls=ServeError)
        if queue_chunks <= 0:
            raise ServeError("queue_chunks must be positive")
        if max_streams <= 0:
            raise ServeError("max_streams must be positive")
        if max_line_bytes < 1024:
            raise ServeError("max_line_bytes must be at least 1024")
        self.host = host
        self.port = port
        self.engine = engine
        self.queue_chunks = queue_chunks
        self.shed_slow = shed_slow
        self.max_streams = max_streams
        self.stop_on_violation = stop_on_violation
        self.loop_limit = loop_limit
        self.cache_root = cache_root
        self.max_line_bytes = max_line_bytes


class MonitorService:
    """A monitor bank behind an asyncio socket server."""

    def __init__(self, monitors, config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig()
        if not isinstance(monitors, dict):
            name = getattr(monitors, "name", None) or "monitor"
            monitors = {name: monitors}
        if not monitors:
            raise ServeError("a service needs at least one monitor spec")
        self._specs = dict(monitors)
        self._default_name = next(iter(self._specs))
        self._compiled: Dict[str, object] = {}
        self.metrics = ServeMetrics()
        self._sessions: Set[StreamSession] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._cache = None
        if self.config.cache_root is not None:
            from repro.cache import CorpusCache

            self._cache = CorpusCache(self.config.cache_root)

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 resolves here)."""
        if self._server is None:
            raise ServeError("service is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self):
        """Bind the socket; returns the resolved ``(host, port)``."""
        if self._server is not None:
            raise ServeError("service is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=self.config.max_line_bytes,
        )
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop listening, abort live streams, drop connections."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for session in list(self._sessions):
            await session.abort()
        self._sessions.clear()
        for writer in list(self._writers):
            writer.close()

    # -- registry --------------------------------------------------------
    def monitor_names(self):
        return list(self._specs)

    def _spec_for(self, name: Optional[str]):
        if name is None:
            name = self._default_name
        spec = self._specs.get(name) if isinstance(name, str) else None
        if spec is None:
            known = ", ".join(sorted(self._specs))
            raise ServeError(
                f"unknown monitor {name!r} (serving: {known})"
            )
        return name, spec

    def _compiled_for(self, name: Optional[str]):
        """The compiled form a ``corpus`` check dispatches on."""
        name, spec = self._spec_for(name)
        compiled = self._compiled.get(name)
        if compiled is None:
            from repro.monitor.automaton import Monitor
            from repro.runtime.compiled import CompiledMonitor, as_compiled
            from repro.synthesis.tr import tr_compiled

            try:
                compiled = (
                    as_compiled(spec)
                    if isinstance(spec, (Monitor, CompiledMonitor))
                    else tr_compiled(spec)
                )
            except (ReproError, TypeError, AttributeError):
                # Banks and composite charts (an implication, say)
                # have no one table.
                raise ServeError(
                    f"monitor {name!r} does not reduce to a single "
                    "compiled monitor; corpus checks need one"
                )
        self._compiled[name] = compiled
        return name, compiled

    # -- gauges ----------------------------------------------------------
    def _queue_depth(self) -> int:
        return sum(session.queue.qsize() for session in self._sessions)

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(
            live_streams=len(self._sessions),
            queue_depth=self._queue_depth(),
            live_connections=len(self._writers),
        )

    def health_snapshot(self) -> dict:
        return {
            "status": "ok",
            "uptime_s": round(self.metrics.uptime_s, 3),
            "engine": self.config.engine,
            "monitors": self.monitor_names(),
            "streams": {
                "live": len(self._sessions),
                "max": self.config.max_streams,
            },
        }

    # -- connection handling ---------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self.metrics.connections_opened += 1
        self._writers.add(writer)
        sessions: Dict[str, StreamSession] = {}
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.metrics.protocol_errors += 1
                    writer.write(encode_message(error_message(
                        f"request line exceeds "
                        f"{self.config.max_line_bytes} bytes"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                if line[:4] == b"GET " or line[:5] == b"HEAD ":
                    await self._handle_http(line, reader, writer)
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                response = await self._dispatch(stripped, sessions)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for session in sessions.values():
                await session.abort()
                self._sessions.discard(session)
            self.metrics.connections_closed += 1
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, line: bytes,
                        sessions: Dict[str, StreamSession]) -> dict:
        try:
            message = decode_request(line)
        except ServeError as error:
            self.metrics.protocol_errors += 1
            return error_message(error)
        op = message["op"]
        try:
            if op == "ping":
                return {"ok": True, "pong": time.time()}
            if op == "metrics":
                return {"ok": True, "metrics": self.metrics_snapshot()}
            if op == "open":
                return await self._op_open(message, sessions)
            if op == "push":
                return await self._op_push(message, sessions)
            if op == "push_masks":
                return await self._op_push_masks(message, sessions)
            if op == "poll":
                return await self._op_poll(message, sessions)
            if op == "close":
                return await self._op_close(message, sessions)
            return await self._op_corpus(message)
        except ServeError as error:
            self.metrics.protocol_errors += 1
            return error_message(error, stream=message.get("stream"))
        except ReproError as error:
            return error_message(error, stream=message.get("stream"))

    @staticmethod
    def _stream_id(message) -> str:
        stream = message.get("stream")
        if not isinstance(stream, str) or not stream:
            raise ServeError(
                f"{message['op']} needs 'stream': a non-empty string id"
            )
        return stream

    def _session_for(self, message,
                     sessions: Dict[str, StreamSession]) -> StreamSession:
        stream = self._stream_id(message)
        session = sessions.get(stream)
        if session is None:
            raise ServeError(f"unknown stream {stream!r}; open it first")
        return session

    # -- data-plane ops --------------------------------------------------
    async def _op_open(self, message,
                       sessions: Dict[str, StreamSession]) -> dict:
        stream = self._stream_id(message)
        if stream in sessions:
            raise ServeError(f"stream {stream!r} is already open")
        if len(self._sessions) >= self.config.max_streams:
            raise ServeError(
                f"stream limit reached ({self.config.max_streams} live); "
                "close a stream or raise --max-streams"
            )
        name, spec = self._spec_for(message.get("monitor"))
        engine = message.get("engine", self.config.engine)
        if engine != AUTO:
            # Central validation: the registry's wording, the
            # streaming-capable choice list.
            require_backend(engine, "streaming", error_cls=ServeError)
        checker = StreamingChecker(
            spec,
            engine=engine,
            stop_on_violation=message.get(
                "stop_on_violation", self.config.stop_on_violation
            ),
            stop_on_detection=message.get("stop_on_detection", False),
            loop_limit=self.config.loop_limit,
        )
        session = StreamSession(
            stream, checker, metrics=self.metrics,
            queue_chunks=self.config.queue_chunks,
            shed_slow=self.config.shed_slow,
        )
        session.start()
        sessions[stream] = session
        self._sessions.add(session)
        self.metrics.streams_opened += 1
        # Echo the *resolved* backend: an "auto" request learns what
        # the planner actually picked for this stream.
        return {"ok": True, "stream": stream, "monitor": name,
                "engine": checker.engine}

    async def _op_push(self, message,
                       sessions: Dict[str, StreamSession]) -> dict:
        session = self._session_for(message, sessions)
        codec = session.checker.codec
        if codec is None:
            return await session.submit(
                "ticks", ticks_from_wire(message.get("ticks")))
        # A detector stream over one codec: the ticks become in-range
        # masks here, in the pass that validates them, and the worker
        # steps them with no Valuation and no second domain scan.
        return await session.submit(
            "masks", ticks_to_masks(message.get("ticks"), codec))

    async def _op_push_masks(self, message,
                             sessions: Dict[str, StreamSession]) -> dict:
        session = self._session_for(message, sessions)
        payload = masks_from_wire(message.get("masks"))
        # A batch the stream cannot step (no one shared codec, or a
        # mask out of range) is the request's error, answered before
        # the chunk is queued, not the stream's.
        session.checker.validate_masks(payload, error_cls=ServeError)
        return await session.submit("masks", payload)

    async def _op_poll(self, message,
                       sessions: Dict[str, StreamSession]) -> dict:
        session = self._session_for(message, sessions)
        await session.drain()
        return {"ok": True, "stream": session.stream_id,
                "report": session.report_document()}

    async def _op_close(self, message,
                        sessions: Dict[str, StreamSession]) -> dict:
        stream = self._stream_id(message)
        session = sessions.pop(stream, None)
        if session is None:
            raise ServeError(f"unknown stream {stream!r}; open it first")
        report = await session.finish()
        self._sessions.discard(session)
        self.metrics.streams_closed += 1
        return {"ok": True, "stream": stream, "report": report}

    # -- corpus op -------------------------------------------------------
    async def _op_corpus(self, message) -> dict:
        """Batch-check a warm ``.rtrc`` corpus, no re-encode.

        The engine comes from the planner, and the kernel runs on the
        event loop: it holds the GIL either way, so a thread would only
        add handoff latency while other streams still could not
        progress.
        """
        from repro.trace.columnar import ColumnarTraceSet, codec_fingerprint

        path, key = message.get("path"), message.get("key")
        if (path is None) == (key is None):
            raise ServeError(
                "corpus needs exactly one of 'path' or 'key'"
            )
        if key is not None:
            if self._cache is None:
                raise ServeError(
                    "corpus by key needs the service started with a "
                    "--cache root"
                )
            try:
                path = self._cache.path_for(str(key))
            except ValueError as error:
                raise ServeError(str(error))
        if not isinstance(path, str) or not os.path.isfile(path):
            raise ServeError(f"no corpus at {path!r}")
        name, compiled = self._compiled_for(message.get("monitor"))
        if self.config.engine != AUTO:
            require_backend(self.config.engine, "batch",
                            error_cls=ServeError)
        columns = ColumnarTraceSet.load(path)
        if columns.fingerprint != codec_fingerprint(compiled.codec):
            raise ServeError(
                f"corpus {os.path.basename(path)} was encoded over a "
                f"different alphabet than monitor {name!r}; re-ingest "
                "it against this monitor"
            )
        mask_arrays = columns.mask_arrays()
        plan = plan_execution(compiled, Workload.from_traces(mask_arrays),
                              self.config.engine, capability="batch",
                              error_cls=ServeError)
        results = plan.encoded_runner()(compiled, mask_arrays)
        self.metrics.corpus_checks += 1
        self.metrics.corpus_ticks += columns.total_ticks
        reports = [
            {
                "trace": index,
                "ticks": result.ticks,
                "accepted": result.accepted,
                "n_detections": len(result.detections),
                "detections": result.detections[:MAX_WIRE_DETECTIONS],
            }
            for index, result in enumerate(results)
        ]
        return {"ok": True, "monitor": name, "path": path,
                "n_traces": columns.n_traces,
                "total_ticks": columns.total_ticks, "reports": reports}

    # -- HTTP health plane -----------------------------------------------
    async def _handle_http(self, first_line: bytes, reader, writer) -> None:
        parts = first_line.decode("latin-1").split()
        method = parts[0] if parts else "GET"
        target = parts[1] if len(parts) > 1 else "/"
        while True:  # drain request headers; we never read a body
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        route = target.split("?", 1)[0]
        if route == "/health":
            status, body = 200, self.health_snapshot()
        elif route == "/metrics":
            status, body = 200, self.metrics_snapshot()
        else:
            status, body = 404, {"error": f"no route {route!r}",
                                 "routes": ["/health", "/metrics"]}
        payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
        reason = {200: "OK", 404: "Not Found"}[status]
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head if method == "HEAD" else head + payload)
        await writer.drain()
