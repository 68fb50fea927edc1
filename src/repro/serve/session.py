"""One live stream: a StreamingChecker behind a bounded chunk queue.

The connection handler must never block the event loop on monitor
stepping, and a fast producer must never buffer unbounded chunks in
the server.  Each open stream therefore gets a
:class:`~repro.trace.streaming.StreamingChecker` plus an
``asyncio.Queue`` capped at ``queue_chunks`` entries, drained by its
own worker task.  ``submit`` enqueues one validated chunk and either
*backpressures* (default: ``await put`` — the producer's writes stall
until the checker catches up, which TCP relays to the client) or
*sheds* (``shed_slow=True``: a full queue marks the stream shed and
every later push is refused — the streaming analogue of dropping
samples rather than stalling the generator).

The worker steps the checker synchronously — chunks are small (capped
at :data:`~repro.serve.protocol.MAX_TICKS_PER_PUSH` ticks) and a
detector stream's chunk arrives as in-range masks that the native
backend steps in one C call — and yields to the loop between chunks
so concurrent streams interleave fairly.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.errors import ServeError
from repro.logic.valuation import Valuation
from repro.serve.metrics import ServeMetrics
from repro.trace.streaming import StreamingChecker

__all__ = ["StreamSession"]

#: Default bound on queued-but-unchecked chunks per stream.
DEFAULT_QUEUE_CHUNKS = 8


class StreamSession:
    """A stream id, its checker, its queue, and its worker task."""

    __slots__ = (
        "stream_id", "checker", "metrics", "shed_slow", "queue",
        "shed", "error", "_worker", "_ticks_seen", "_detections_seen",
        "_violations_seen",
    )

    def __init__(
        self,
        stream_id: str,
        checker: StreamingChecker,
        metrics: Optional[ServeMetrics] = None,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
        shed_slow: bool = False,
    ):
        if queue_chunks <= 0:
            raise ServeError("queue_chunks must be positive")
        self.stream_id = stream_id
        self.checker = checker
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.shed_slow = shed_slow
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_chunks)
        self.shed = False
        self.error: Optional[str] = None
        self._worker: Optional[asyncio.Task] = None
        self._ticks_seen = 0
        self._detections_seen = 0
        self._violations_seen = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Spawn the draining worker (must run inside the event loop)."""
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name=f"stream-{self.stream_id}"
            )

    async def _run(self) -> None:
        while True:
            kind, payload = await self.queue.get()
            try:
                if self.error is None:
                    self._consume(kind, payload)
            except Exception as exc:  # keep the worker alive: the error
                # is the *stream's* verdict, reported on its next op.
                self.error = f"{type(exc).__name__}: {exc}"
            finally:
                self._publish_progress()
                self.queue.task_done()
            # One chunk per scheduling slot: fairness across streams.
            await asyncio.sleep(0)

    def _consume(self, kind: str, payload) -> None:
        # Masks were range-checked (or encoded by the stream's codec)
        # before they were queued.
        if kind == "masks":
            self.checker.push_encoded(payload)
        else:
            self.checker.push_chunk([Valuation(tick) for tick in payload])

    def _publish_progress(self) -> None:
        """Fold this chunk's deltas into the service-wide counters."""
        checker = self.checker
        ticks, detections = checker.ticks, checker.n_detections
        violations = checker.n_violations
        self.metrics.record_chunk(ticks - self._ticks_seen)
        self.metrics.detections += detections - self._detections_seen
        self.metrics.violations += violations - self._violations_seen
        self._ticks_seen = ticks
        self._detections_seen = detections
        self._violations_seen = violations

    # -- producer side ---------------------------------------------------
    async def submit(self, kind: str, payload) -> dict:
        """Enqueue one chunk; the returned dict is the wire ack."""
        if self.shed:
            return {"ok": False, "stream": self.stream_id, "shed": True,
                    "error": "stream shed: queue overran a slow consumer"}
        if self.error is not None:
            return {"ok": False, "stream": self.stream_id,
                    "error": self.error}
        item = (kind, payload)
        if self.shed_slow:
            try:
                self.queue.put_nowait(item)
            except asyncio.QueueFull:
                self.shed = True
                self.metrics.streams_shed += 1
                return {"ok": False, "stream": self.stream_id,
                        "shed": True,
                        "error": "stream shed: queue overran a slow "
                                 "consumer"}
        else:
            await self.queue.put(item)
        return {"ok": True, "stream": self.stream_id,
                "accepted": len(payload)}

    # -- consumer side ---------------------------------------------------
    async def drain(self) -> None:
        """Wait until every queued chunk has been checked."""
        await self.queue.join()

    def report_document(self) -> dict:
        """The stream's report as a wire-serializable dict."""
        report = self.checker.report()
        document = {
            "name": report.name,
            "ticks": report.ticks,
            "ok": report.ok,
            "accepted": report.accepted,
            "detections": list(report.detections),
            "n_detections": report.n_detections,
            "violations": [list(pair) for pair in report.violations],
            "n_violations": report.n_violations,
            "n_passes": report.n_passes,
            "n_pending": report.n_pending,
            "stopped_early": report.stopped_early,
        }
        if self.shed:
            document["shed"] = True
        if self.error is not None:
            document["error"] = self.error
        return document

    async def finish(self) -> dict:
        """Drain, stop the worker, and return the final report."""
        await self.queue.join()
        await self.abort()
        return self.report_document()

    async def abort(self) -> None:
        """Stop the worker without draining (connection went away)."""
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.cancel()
            try:
                await worker
            except asyncio.CancelledError:
                pass
