"""Detector pushes go straight from wire ticks to masks.

A ``push`` on a detector stream over one codec is validated and
encoded in one pass (:func:`~repro.serve.protocol.ticks_to_masks`):
the masks must equal ``codec.encode(Valuation(tick))`` whatever the
symbols (unknown, duplicated, reordered), a malformed payload must
raise ``ticks_from_wire``'s exact error, and the worker must step the
chunk without building a ``Valuation`` — in one C call on ``native``.
"""

import asyncio
import json
import random

import pytest

from repro.errors import ServeError
from repro.logic.codec import AlphabetCodec
from repro.logic.valuation import Valuation
from repro.protocols.ocp import ocp_simple_read_chart
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace
from repro.serve import MonitorService, ServeConfig
from repro.serve.protocol import (
    MAX_TICKS_PER_PUSH,
    ticks_from_wire,
    ticks_to_masks,
)
from repro.synthesis.tr import tr, tr_compiled


def test_encoder_matches_codec_encode_on_any_symbols():
    codec = AlphabetCodec(["ack", "data", "req", "resp"])
    rng = random.Random(5)
    pool = list(codec.symbols) + ["zzz", "", "REQ", "req "]
    ticks = [[rng.choice(pool) for _ in range(rng.randint(0, 6))]
             for _ in range(500)]
    ticks += [["req", "req"], ["resp", "ack", "req"], ["nope"], []]
    assert ticks_to_masks(ticks, codec) == [
        codec.encode(Valuation(tick)) for tick in ticks]


@pytest.mark.parametrize("payload", [
    None, "ticks", 7, {"a": 1}, ["req"], [["req"], "ack"], [[1]],
    [[True]], [[None]], [[["req"]]], [[{"req": 1}]], [["req", 2.5]],
    [[]] * (MAX_TICKS_PER_PUSH + 1),
])
def test_encoder_raises_ticks_from_wire_errors(payload):
    codec = AlphabetCodec(["ack", "req"])
    with pytest.raises(ServeError) as reference:
        ticks_from_wire(payload)
    with pytest.raises(ServeError) as encoded:
        ticks_to_masks(payload, codec)
    assert str(encoded.value) == str(reference.value)


def test_detector_push_builds_no_valuation_and_calls_c_once_a_chunk(
        monkeypatch, diff_harness):
    if "native" not in diff_harness.stream_engines():
        pytest.skip("native backend unavailable")
    from repro.runtime.native import NativeKernel

    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    generator = TraceGenerator(chart, seed=9)
    ticks = []
    while len(ticks) < 1500:
        ticks.extend(sorted(v.true) for v in generator.satisfying_trace(
            prefix=2, suffix=1))
    pushes = [ticks[start:start + 500] for start in range(0, 1500, 500)]

    # Counted while the pushes, and the poll that drains them, run.
    counts = {"valuations": 0, "stream": 0, "run": 0}
    live = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            if live:
                counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Valuation, "__init__",
                        counting("valuations", Valuation.__init__))
    for name in ("stream", "run"):
        monkeypatch.setattr(NativeKernel, name,
                            counting(name, getattr(NativeKernel, name)))
    service = MonitorService({"ocp": compiled}, ServeConfig(port=0))

    async def scenario():
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(message):
                writer.write(json.dumps(message).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            opened = await rpc({"op": "open", "stream": "s"})
            live.append(True)
            for chunk in pushes:
                ack = await rpc({"op": "push", "stream": "s",
                                 "ticks": chunk})
                assert ack["ok"], ack
            await rpc({"op": "poll", "stream": "s"})
            live.clear()
            closed = await rpc({"op": "close", "stream": "s"})
            writer.close()
            return opened, closed["report"]
        finally:
            await service.aclose()

    opened, report = asyncio.run(scenario())
    assert opened["engine"] == "native"
    assert counts == {"valuations": 0, "stream": len(pushes), "run": 0}
    trace = Trace.from_sets([set(tick) for tick in ticks],
                            compiled.codec.symbols)
    reference, = diff_harness.reference(tr(chart), [trace])
    assert report["detections"] == reference.detections
    assert report["ticks"] == len(ticks)
