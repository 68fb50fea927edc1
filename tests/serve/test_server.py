"""Integration tests for MonitorService: the full socket round trip.

Everything here drives a real asyncio server over real loopback
connections — the same bytes an external client would send.
"""

import asyncio
import json

import pytest

from repro.cache import CorpusCache
from repro.cesc.builder import ev, scesc
from repro.errors import ServeError
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.vector import run_many_vector
from repro.serve import MonitorService, ServeConfig
from repro.semantics.generator import TraceGenerator
from repro.synthesis.tr import tr_compiled
from repro.trace.columnar import ColumnarTraceSet


def _handshake():
    return (
        scesc("handshake").instances("M", "S")
        .tick(ev("req")).tick(ev("ack"))
        .arrow("done", cause="req", effect="ack")
        .build()
    )


def _wire_ticks(trace):
    return [sorted(valuation.true) for valuation in trace]


async def _rpc(reader, writer, message):
    writer.write(json.dumps(message).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def _serve(monitors, **config):
    """Run ``scenario(service, host, port)`` against a live service."""
    service = MonitorService(monitors, ServeConfig(port=0, **config))

    def runner(scenario):
        async def wrapped():
            host, port = await service.start()
            try:
                return await scenario(service, host, port)
            finally:
                await service.aclose()

        return asyncio.run(wrapped())

    return runner


# ------------------------------------------------------------ data plane ----
def test_stream_verdicts_match_batch_across_64_concurrent_streams():
    """The acceptance bar: 64 interleaved streams, byte-identical
    verdicts to the batch vector kernel, queues bounded throughout."""
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    traces = []
    for seed in range(64):
        generator = TraceGenerator(chart, seed=seed)
        if seed % 4 == 3:
            traces.append(generator.random_trace(6 + seed % 7))
        else:
            traces.append(generator.satisfying_trace(
                prefix=seed % 3, suffix=seed % 2))
    batch = run_many_vector(compiled, traces)

    async def one_stream(host, port, index):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            stream = f"s{index}"
            opened = await _rpc(reader, writer,
                                {"op": "open", "stream": stream})
            assert opened["ok"], opened
            ticks = _wire_ticks(traces[index])
            for start in range(0, len(ticks), 3):  # small interleaved chunks
                ack = await _rpc(reader, writer, {
                    "op": "push", "stream": stream,
                    "ticks": ticks[start:start + 3]})
                assert ack["ok"], ack
            closed = await _rpc(reader, writer,
                                {"op": "close", "stream": stream})
            assert closed["ok"], closed
            return closed["report"]
        finally:
            writer.close()

    async def scenario(service, host, port):
        reports = await asyncio.gather(*(
            one_stream(host, port, index) for index in range(64)))
        snapshot = service.metrics_snapshot()
        return reports, snapshot

    reports, snapshot = _serve({"ocp": compiled}, queue_chunks=4)(scenario)
    for report, reference, trace in zip(reports, batch, traces):
        assert report["detections"] == reference.detections
        assert report["ticks"] == trace.length
        assert report["accepted"] == reference.accepted
    assert snapshot["streams"]["opened"] == 64
    assert snapshot["streams"]["closed"] == 64
    assert snapshot["streams"]["live"] == 0
    assert snapshot["ticks"] == sum(t.length for t in traces)


def test_push_masks_path_matches_push_path():
    chart = _handshake()
    compiled = tr_compiled(chart)
    trace = TraceGenerator(chart, seed=3).satisfying_trace(
        prefix=2, suffix=2)
    masks = [int(m) for m in compiled.codec.encode_many([trace])[0]]

    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for stream, op, payload in (
                ("by-ticks", "push",
                 {"ticks": _wire_ticks(trace)}),
                ("by-masks", "push_masks", {"masks": masks}),
            ):
                assert (await _rpc(reader, writer,
                                   {"op": "open", "stream": stream}))["ok"]
                message = {"op": op, "stream": stream}
                message.update(payload)
                assert (await _rpc(reader, writer, message))["ok"]
            ticks = await _rpc(reader, writer,
                               {"op": "close", "stream": "by-ticks"})
            masked = await _rpc(reader, writer,
                                {"op": "close", "stream": "by-masks"})
            return ticks["report"], masked["report"]
        finally:
            writer.close()

    by_ticks, by_masks = _serve({"hs": compiled})(scenario)
    assert by_ticks["detections"] == by_masks["detections"]
    assert by_ticks["ticks"] == by_masks["ticks"]


def test_push_masks_outside_the_codec_is_the_request_error():
    """A mask outside the stream's codec is answered as a ServeError
    before it is queued; the stream keeps checking (it used to become
    the stream's ``IndexError``)."""
    compiled = tr_compiled(_handshake())

    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            assert (await _rpc(reader, writer,
                               {"op": "open", "stream": "s"}))["ok"]
            bad = await _rpc(reader, writer,
                             {"op": "push_masks", "stream": "s",
                              "masks": [2, 1 << 28]})
            good = await _rpc(reader, writer,
                              {"op": "push_masks", "stream": "s",
                               "masks": [2, 1]})
            closed = await _rpc(reader, writer,
                                {"op": "close", "stream": "s"})
            return bad, good, closed["report"], service.metrics_snapshot()
        finally:
            writer.close()

    bad, good, report, snapshot = _serve({"hs": compiled})(scenario)
    assert not bad["ok"] and bad["stream"] == "s"
    assert f"mask {1 << 28} at trace 0, tick 1 is outside 0..3" \
        in bad["error"]
    assert good["ok"] and good["accepted"] == 2
    assert "error" not in report
    assert report["ticks"] == 2
    assert snapshot["protocol_errors"] == 1  # counted as a ServeError


def test_poll_reports_progress_without_closing():
    chart = _handshake()

    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await _rpc(reader, writer, {"op": "open", "stream": "s"})
            await _rpc(reader, writer, {"op": "push", "stream": "s",
                                        "ticks": [["req"], ["ack"]]})
            first = await _rpc(reader, writer,
                               {"op": "poll", "stream": "s"})
            await _rpc(reader, writer, {"op": "push", "stream": "s",
                                        "ticks": [["req"], ["ack"]]})
            second = await _rpc(reader, writer,
                                {"op": "poll", "stream": "s"})
            return first, second
        finally:
            writer.close()

    first, second = _serve({"hs": _handshake()})(scenario)
    assert first["ok"] and first["report"]["ticks"] == 2
    assert second["report"]["ticks"] == 4
    assert second["report"]["detections"] == [1, 3]


def test_protocol_errors_answer_without_killing_the_connection():
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            answers = []
            answers.append(await _rpc(reader, writer,
                                      {"op": "push", "stream": "ghost",
                                       "ticks": []}))
            answers.append(await _rpc(reader, writer,
                                      {"op": "open", "stream": ""}))
            answers.append(await _rpc(reader, writer,
                                      {"op": "open", "stream": "s",
                                       "monitor": "nope"}))
            answers.append(await _rpc(reader, writer,
                                      {"op": "open", "stream": "s",
                                       "engine": "quantum"}))
            writer.write(b"{broken json\n")
            await writer.drain()
            answers.append(json.loads(await reader.readline()))
            # The connection still works after every error above.
            answers.append(await _rpc(reader, writer, {"op": "ping"}))
            return answers, service.metrics_snapshot()
        finally:
            writer.close()

    answers, snapshot = _serve({"hs": _handshake()})(scenario)
    ghost, empty, monitor, engine, broken, ping = answers
    assert not ghost["ok"] and "open it first" in ghost["error"]
    assert not empty["ok"] and "non-empty string" in empty["error"]
    assert not monitor["ok"] and "unknown monitor" in monitor["error"]
    assert not engine["ok"] and "unknown engine" in engine["error"]
    assert not broken["ok"] and "JSON" in broken["error"]
    assert ping["ok"]
    assert snapshot["protocol_errors"] == 5


def test_duplicate_open_and_max_streams_cap():
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            assert (await _rpc(reader, writer,
                               {"op": "open", "stream": "a"}))["ok"]
            duplicate = await _rpc(reader, writer,
                                   {"op": "open", "stream": "a"})
            assert (await _rpc(reader, writer,
                               {"op": "open", "stream": "b"}))["ok"]
            third = await _rpc(reader, writer,
                               {"op": "open", "stream": "c"})
            await _rpc(reader, writer, {"op": "close", "stream": "a"})
            freed = await _rpc(reader, writer,
                               {"op": "open", "stream": "c"})
            return duplicate, third, freed
        finally:
            writer.close()

    duplicate, third, freed = _serve({"hs": _handshake()},
                                     max_streams=2)(scenario)
    assert not duplicate["ok"] and "already open" in duplicate["error"]
    assert not third["ok"] and "stream limit" in third["error"]
    assert freed["ok"]


def test_connection_drop_aborts_its_streams():
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        await _rpc(reader, writer, {"op": "open", "stream": "s"})
        assert len(service._sessions) == 1
        writer.close()
        await writer.wait_closed()
        for _ in range(50):
            if not service._sessions:
                break
            await asyncio.sleep(0.02)
        return len(service._sessions), service.metrics_snapshot()

    live, snapshot = _serve({"hs": _handshake()})(scenario)
    assert live == 0
    assert snapshot["connections"]["closed"] == 1


def test_oversized_request_line_is_refused():
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"x" * 5000 + b"\n")
            await writer.drain()
            answer = json.loads(await reader.readline())
            assert (await reader.read()) == b""  # server closed after
            return answer
        finally:
            writer.close()

    answer = _serve({"hs": _handshake()},
                    max_line_bytes=2048)(scenario)
    assert not answer["ok"] and "exceeds" in answer["error"]


# -------------------------------------------------------------- corpus op ----
def _corpus_for(compiled, traces):
    codec = compiled.codec
    return ColumnarTraceSet.from_mask_arrays(
        codec.encode_many(list(traces)), codec.symbols)


def test_corpus_op_by_path_matches_batch(tmp_path):
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    traces = [TraceGenerator(chart, seed=seed).satisfying_trace(suffix=1)
              for seed in range(5)]
    path = str(tmp_path / "corpus.rtrc")
    _corpus_for(compiled, traces).save(path)
    batch = run_many_vector(compiled, traces)

    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            return await _rpc(reader, writer,
                              {"op": "corpus", "path": path})
        finally:
            writer.close()

    answer = _serve({"ocp": compiled})(scenario)
    assert answer["ok"] and answer["n_traces"] == 5
    for report, reference in zip(answer["reports"], batch):
        assert report["detections"] == reference.detections
        assert report["accepted"] == reference.accepted


def test_corpus_op_by_cache_key_and_error_paths(tmp_path):
    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    traces = [TraceGenerator(chart, seed=9).satisfying_trace(suffix=2)]
    cache = CorpusCache(str(tmp_path))
    cache.store_bytes("warmkey", _corpus_for(compiled, traces).to_bytes())
    alien = str(tmp_path / "alien.rtrc")
    ColumnarTraceSet.from_mask_arrays([[0, 1]], ("x", "y")).save(alien)

    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            warm = await _rpc(reader, writer,
                              {"op": "corpus", "key": "warmkey"})
            missing = await _rpc(reader, writer,
                                 {"op": "corpus", "key": "coldkey"})
            both = await _rpc(reader, writer,
                              {"op": "corpus", "key": "k", "path": "p"})
            mismatched = await _rpc(reader, writer,
                                    {"op": "corpus", "path": alien})
            return warm, missing, both, mismatched
        finally:
            writer.close()

    warm, missing, both, mismatched = _serve(
        {"ocp": compiled}, cache_root=str(tmp_path))(scenario)
    assert warm["ok"] and warm["reports"][0]["accepted"]
    assert not missing["ok"] and "no corpus" in missing["error"]
    assert not both["ok"] and "exactly one" in both["error"]
    assert not mismatched["ok"] and "alphabet" in mismatched["error"]


def test_corpus_by_key_without_cache_root_is_refused(tmp_path):
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            return await _rpc(reader, writer,
                              {"op": "corpus", "key": "k"})
        finally:
            writer.close()

    answer = _serve({"hs": _handshake()})(scenario)
    assert not answer["ok"] and "--cache" in answer["error"]


def test_corpus_jobs_offload_keeps_loop_responsive(tmp_path, monkeypatch):
    """``--jobs 2`` fans the corpus out to shard worker pools off the
    event loop: verdicts stay identical to the on-loop check, and a
    ping on a second connection is answered while the corpus is still
    in flight.

    The sharded runner is wrapped with a delay so "in flight" is
    deterministic (the persistent worker pools may already be warm
    from earlier tests): the delay runs where the runner runs, so if
    the corpus op ever moves back onto the event loop, the ping
    stalls behind it and the mid-corpus assertion fails.
    """
    import time as time_module

    from repro.trace import shard as shard_module

    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    traces = []
    for seed in range(48):
        generator = TraceGenerator(chart, seed=seed)
        traces.append(generator.satisfying_trace(
            prefix=seed % 4, suffix=2 + seed % 5))
    path = str(tmp_path / "corpus.rtrc")
    _corpus_for(compiled, traces).save(path)

    real_run = shard_module.run_sharded_encoded
    calls = []

    def slow_run(*args, **kwargs):
        calls.append(kwargs.get("jobs"))
        time_module.sleep(0.3)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(shard_module, "run_sharded_encoded", slow_run)

    async def check(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            return await _rpc(reader, writer,
                              {"op": "corpus", "path": path})
        finally:
            writer.close()

    async def offloaded(service, host, port):
        corpus_task = asyncio.ensure_future(check(service, host, port))
        # Give the request a head start so the ping lands mid-corpus.
        await asyncio.sleep(0.05)
        ping_reader, ping_writer = await asyncio.open_connection(
            host, port)
        try:
            pong = await asyncio.wait_for(
                _rpc(ping_reader, ping_writer, {"op": "ping"}), timeout=2
            )
        finally:
            ping_writer.close()
        mid_corpus = not corpus_task.done()
        answer = await corpus_task
        return pong, mid_corpus, answer

    pong, mid_corpus, answer = _serve({"ocp": compiled},
                                      jobs=2)(offloaded)
    baseline = _serve({"ocp": compiled})(check)
    assert calls == [2], "jobs!=1 must route through run_sharded_encoded"
    assert pong["ok"] and "pong" in pong
    assert mid_corpus, "ping was not answered until the corpus finished"
    assert answer["ok"] and answer["n_traces"] == len(traces)
    assert answer["reports"] == baseline["reports"]


def test_serve_config_rejects_negative_jobs():
    with pytest.raises(ServeError, match="jobs"):
        ServeConfig(jobs=-1)


# ------------------------------------------------------------- HTTP plane ----
async def _http(host, port, request):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, head, body


def test_http_health_and_metrics_endpoints():
    async def scenario(service, host, port):
        health = await _http(host, port,
                             b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        metrics = await _http(host, port, b"GET /metrics HTTP/1.1\r\n\r\n")
        lost = await _http(host, port, b"GET /nope HTTP/1.1\r\n\r\n")
        head = await _http(host, port, b"HEAD /health HTTP/1.1\r\n\r\n")
        return health, metrics, lost, head

    health, metrics, lost, head = _serve(
        {"hs": _handshake()}, engine="vector")(scenario)
    status, _, body = health
    document = json.loads(body)
    assert status == 200
    assert document["status"] == "ok"
    assert document["monitors"] == ["hs"]
    assert document["engine"] == "vector"
    status, _, body = metrics
    assert status == 200 and "ticks_per_s" in json.loads(body)
    assert lost[0] == 404
    assert head[0] == 200 and head[2] == b""  # HEAD ships no body
    assert b"Content-Type: application/json" in health[1]


# ---------------------------------------------------------- configuration ----
def test_serve_config_validation():
    with pytest.raises(ServeError, match="unknown engine"):
        ServeConfig(engine="quantum")
    with pytest.raises(ServeError, match="queue_chunks"):
        ServeConfig(queue_chunks=0)
    with pytest.raises(ServeError, match="max_streams"):
        ServeConfig(max_streams=0)
    with pytest.raises(ServeError, match="max_line_bytes"):
        ServeConfig(max_line_bytes=16)
    with pytest.raises(ServeError, match="at least one monitor"):
        MonitorService({})


def test_service_accepts_bare_spec_and_named_registry():
    single = MonitorService(_handshake())
    assert single.monitor_names() == ["handshake"]
    many = MonitorService({"a": _handshake(),
                           "b": ocp_simple_read_chart()})
    assert many.monitor_names() == ["a", "b"]


def test_per_open_engine_override():
    chart = _handshake()

    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            opened = await _rpc(reader, writer,
                                {"op": "open", "stream": "s",
                                 "engine": "compiled"})
            masks = await _rpc(reader, writer,
                               {"op": "push_masks", "stream": "s",
                                "masks": [1]})
            await _rpc(reader, writer, {"op": "poll", "stream": "s"})
            closed = await _rpc(reader, writer,
                                {"op": "close", "stream": "s"})
            return opened, closed
        finally:
            writer.close()

    opened, closed = _serve({"hs": chart}, engine="vector")(scenario)
    assert opened["ok"] and opened["engine"] == "compiled"
    # The override stuck, and push_masks steps any table backend: the
    # compiled-engine stream consumed the pre-encoded tick cleanly.
    assert "error" not in closed["report"]
    assert closed["report"]["ticks"] == 1
