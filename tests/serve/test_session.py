"""Tests for StreamSession: bounded queues, shedding, worker errors."""

import asyncio

import pytest

from repro.cesc.builder import ev, scesc
from repro.errors import ServeError
from repro.logic.valuation import Valuation
from repro.serve.metrics import ServeMetrics
from repro.serve.session import StreamSession
from repro.trace.streaming import StreamingChecker


def _handshake():
    return (
        scesc("handshake").instances("M", "S")
        .tick(ev("req")).tick(ev("ack"))
        .arrow("done", cause="req", effect="ack")
        .build()
    )


TICKS = [["req"], ["ack"], [], ["req"], ["ack"]]


def _reference(chart, engine):
    checker = StreamingChecker(chart, engine=engine)
    for tick in TICKS:
        checker.push(Valuation(tick))
    return checker.report()


def test_session_checks_submitted_chunks(diff_harness):
    chart = _handshake()

    async def scenario(engine):
        session = StreamSession("s1", StreamingChecker(chart,
                                                       engine=engine))
        session.start()
        assert (await session.submit("ticks", TICKS[:2]))["ok"]
        assert (await session.submit("ticks", TICKS[2:]))["ok"]
        report = await session.finish()
        return report

    for engine in diff_harness.stream_engines():
        report = asyncio.run(scenario(engine))
        reference = _reference(chart, engine)
        assert report["detections"] == reference.detections
        assert report["ticks"] == reference.ticks
        assert report["ok"] and report["accepted"]
        assert "error" not in report and "shed" not in report


def test_session_counts_into_shared_metrics(diff_harness):
    chart = _handshake()

    async def scenario(engine, metrics):
        session = StreamSession("s1",
                                StreamingChecker(chart, engine=engine),
                                metrics=metrics)
        session.start()
        await session.submit("ticks", TICKS)
        await session.finish()

    for engine in diff_harness.stream_engines():
        metrics = ServeMetrics()
        asyncio.run(scenario(engine, metrics))
        assert metrics.ticks_checked == len(TICKS)
        assert metrics.chunks_checked == 1
        assert metrics.detections == 2


def test_backpressure_blocks_until_worker_drains(diff_harness):
    """Without shed_slow a full queue stalls submit, never drops."""
    chart = _handshake()

    async def scenario(engine):
        session = StreamSession("s1",
                                StreamingChecker(chart, engine=engine),
                                queue_chunks=1)
        session.start()
        for _ in range(6):  # 6x the queue bound; all must land
            result = await asyncio.wait_for(
                session.submit("ticks", TICKS), timeout=5
            )
            assert result["ok"]
        return await session.finish()

    for engine in diff_harness.stream_engines():
        report = asyncio.run(scenario(engine))
        assert report["ticks"] == 6 * len(TICKS)
        assert "shed" not in report


def test_shed_slow_refuses_overrun_and_stays_shed(diff_harness):
    chart = _handshake()

    async def scenario(engine, metrics):
        session = StreamSession("s1",
                                StreamingChecker(chart, engine=engine),
                                metrics=metrics, queue_chunks=1,
                                shed_slow=True)
        # Worker not started: the queue can only fill up.
        first = await session.submit("ticks", TICKS)
        second = await session.submit("ticks", TICKS)
        assert first["ok"]
        assert not second["ok"] and second["shed"]
        # Shed is sticky even after the worker catches up.
        session.start()
        await asyncio.sleep(0.05)
        third = await session.submit("ticks", TICKS)
        assert not third["ok"] and third["shed"]
        return await session.finish()

    for engine in diff_harness.stream_engines():
        metrics = ServeMetrics()
        report = asyncio.run(scenario(engine, metrics))
        assert report["shed"] is True
        assert report["ticks"] == len(TICKS)  # only the accepted chunk ran
        assert metrics.streams_shed == 1


def test_worker_error_surfaces_on_ack_and_report():
    """push_masks on an interpreted-engine stream fails inside the
    worker (guard trees step valuations, not pre-encoded masks); the
    stream reports the error instead of killing the service."""
    chart = _handshake()

    async def scenario():
        session = StreamSession("s1",
                                StreamingChecker(chart,
                                                 engine="interpreted"))
        session.start()
        assert (await session.submit("masks", [1, 2]))["ok"]
        await session.drain()
        late = await session.submit("ticks", TICKS)
        report = await session.finish()
        return late, report

    late, report = asyncio.run(scenario())
    assert not late["ok"] and "push_masks" in late["error"]
    assert "push_masks" in report["error"]


def test_queue_chunks_must_be_positive():
    with pytest.raises(ServeError, match="queue_chunks"):
        StreamSession("s1", StreamingChecker(_handshake()),
                      queue_chunks=0)


def test_abort_is_idempotent_and_finish_after_abort_reports(diff_harness):
    chart = _handshake()

    async def scenario(engine):
        session = StreamSession("s1",
                                StreamingChecker(chart, engine=engine))
        session.start()
        await session.submit("ticks", TICKS)
        await session.drain()
        await session.abort()
        await session.abort()
        return session.report_document()

    for engine in diff_harness.stream_engines():
        report = asyncio.run(scenario(engine))
        assert report["ticks"] == len(TICKS)
