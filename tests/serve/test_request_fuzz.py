"""Seeded structural fuzzer for ``repro serve`` request lines.

Each case takes a valid ``open``/``push``/``push_masks``/``poll``/
``close``/``corpus`` line and mutates one field — the wrong JSON type,
ticks that are not lists, symbols that are not strings, unknown,
duplicate and reordered symbols, masks that are negative, bool, out
of range or beyond int64, pushes over the per-request cap — or sends
a line that is not a JSON object at all.  The lines go to an
in-process :class:`~repro.serve.MonitorService` over one connection,
and each must get the reference's answer, or ``ok: false``, within a
time bound; a ``ping`` after every case proves the connection still
works.  The reference for a stream is an ``interpreted``
:class:`~repro.trace.streaming.StreamingChecker` fed one
``Valuation(tick)`` per accepted tick: ``poll`` and ``close`` reports
must equal its report, and no stream may carry an error — a request
the stream cannot take (``push_masks`` on a stream without one shared
codec included) is refused before its chunk is queued.  A stream's
own error (the worker's ``"{type}: {msg}"``) must name a
:class:`~repro.errors.ReproError` subclass.  ``REPRO_FUZZ_CASES`` sets
the case count (default 210).
"""

import asyncio
import json
import os
import random

from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Alt, Implication
from repro.errors import ReproError
from repro.logic.valuation import Valuation
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.compiled import run_many_encoded
from repro.runtime.engines import backend, backend_names
from repro.serve import MonitorService, ServeConfig
from repro.serve.protocol import MAX_TICKS_PER_PUSH
from repro.synthesis.tr import tr_compiled
from repro.trace.columnar import ColumnarTraceSet
from repro.trace.streaming import StreamingChecker

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "210"))

#: Seconds any one answer may take.
ANSWER_BOUND_S = 10.0

#: Values of every JSON type but the right one, field by field.
WRONG_TYPES = (5, 2.5, True, None, [], ["x"], {}, {"a": 1}, "")


def _repro_error_names():
    names, todo = set(), [ReproError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


ERROR_NAMES = _repro_error_names()


def _names_a_repro_error(text):
    return text.split(":", 1)[0] in ERROR_NAMES


def _specs():
    antecedent = scesc("request").instances("M", "S").tick(ev("req"))
    consequent = scesc("response").instances("M", "S").tick(ev("ack"))
    read = scesc("read").instances("M").tick(ev("req")).tick(ev("ack"))
    write = scesc("write").instances("M").tick(ev("wr"))
    return {
        "ocp": ocp_simple_read_chart(),
        "impl": Implication(antecedent.build(), consequent.build(),
                            name="req_implies_ack"),
        # Members over two alphabets: no one codec for pre-encoded input.
        "alt": Alt([read.build(), write.build()], name="read_or_write"),
    }


class _Stream:
    """The reference side of one open stream."""

    def __init__(self, spec, engine, stop):
        self.reference = StreamingChecker(spec, engine="interpreted",
                                          stop_on_detection=stop)
        checker = StreamingChecker(spec, engine=engine,
                                   stop_on_detection=stop)
        self.codec = checker.codec
        self.symbols = sorted(spec.alphabet())

    def accept(self, ticks):
        for tick in ticks:
            self.reference.push(Valuation(tick))

    def report(self):
        report = self.reference.report()
        return {
            "name": report.name, "ticks": report.ticks, "ok": report.ok,
            "accepted": report.accepted,
            "detections": list(report.detections),
            "n_detections": report.n_detections,
            "violations": [list(pair) for pair in report.violations],
            "n_violations": report.n_violations,
            "n_passes": report.n_passes, "n_pending": report.n_pending,
            "stopped_early": report.stopped_early,
        }


class _Fuzzer:
    """Draws cases, predicts answers, checks what the service said."""

    def __init__(self, rng, specs, corpus_path, corpus_reference,
                 directory):
        self.rng = rng
        self.specs = specs
        self.corpus_path = corpus_path
        self.corpus_reference = corpus_reference
        self.directory = directory
        self.streams = {}
        self.counter = 0
        self.engines = ["auto"] + [
            name for name in backend_names("streaming")
            if backend(name).unavailable_reason() is None
        ]

    # -- value generators --------------------------------------------------
    def wrong(self):
        return self.rng.choice(WRONG_TYPES)

    def ticks(self, stream):
        rng = self.rng
        pool = stream.symbols + ["zzz", "REQ"]
        ticks = []
        for _ in range(rng.randint(0, 40)):
            tick = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            if tick and rng.random() < 0.2:
                tick.append(tick[0])  # duplicate
            rng.shuffle(tick)  # any order
            ticks.append(tick)
        return ticks

    def open_stream(self):
        return self.rng.choice(sorted(self.streams)) if self.streams \
            else "never-opened"

    # -- cases ---------------------------------------------------------------
    def case(self):
        """``(line bytes, expectation)``: the expectation maps the
        answer to a verdict (raises on a mismatch)."""
        kind = self.rng.choice(["open", "open", "push", "push", "push",
                                "push_masks", "poll", "close", "corpus",
                                "line"])
        return getattr(self, f"_{kind}")()

    def _open(self):
        rng = self.rng
        self.counter += 1
        stream = f"s{self.counter}"
        message = {"op": "open", "stream": stream}
        monitor = rng.choice(["ocp", "impl", "alt", None])
        if monitor is not None:
            message["monitor"] = monitor
        engine = rng.choice(self.engines + [None])
        if engine is not None:
            message["engine"] = engine
        stop = rng.random() < 0.3
        if stop:
            message["stop_on_detection"] = True
        mutation = rng.choice(["none", "none", "stream", "duplicate",
                               "monitor", "engine"])
        valid = True
        if mutation == "stream":
            message["stream"] = self.wrong()
            valid = False
        elif mutation == "duplicate" and self.streams:
            message["stream"] = stream = self.open_stream()
            valid = False
        elif mutation == "monitor":
            monitor = message["monitor"] = rng.choice(WRONG_TYPES
                                                      + ("bogus",))
            # A null monitor names the default one.
            valid = monitor is None
        elif mutation == "engine":
            message["engine"] = rng.choice(WRONG_TYPES + ("vector",
                                                          "bogus"))
            valid = False
        model = None
        if valid:
            try:
                model = _Stream(self.specs[monitor or "ocp"],
                                engine or "auto", stop)
            except ReproError:
                model = None

        def expect(answer):
            assert answer["ok"] is (model is not None), (message, answer)
            if model is not None:
                self.streams[stream] = model

        return message, expect

    def _push(self):
        rng = self.rng
        stream_id = self.open_stream()
        stream = self.streams.get(stream_id)
        ticks = self.ticks(stream) if stream is not None else [["req"]]
        message = {"op": "push", "stream": stream_id, "ticks": ticks}
        mutation = rng.choice(["none", "none", "none", "stream", "ticks",
                               "tick", "symbol", "cap"])
        valid = stream is not None
        if mutation == "stream":
            message["stream"] = rng.choice(WRONG_TYPES + ("unknown",))
            valid = False
        elif mutation == "ticks":
            message["ticks"] = rng.choice([5, "req", {}, None, True])
            valid = False
        elif mutation == "tick":
            ticks.insert(rng.randint(0, len(ticks)),
                         rng.choice([5, "req", {}, None, True]))
            valid = False
        elif mutation == "symbol":
            ticks.append(["req", rng.choice([1, True, None, [], {},
                                             ["req"], 2.5])])
            valid = False
        elif mutation == "cap":
            message["ticks"] = [[] for _ in range(MAX_TICKS_PER_PUSH + 1)]
            valid = False

        def expect(answer):
            assert answer["ok"] is valid, (mutation, answer)
            if valid:
                assert answer["accepted"] == len(ticks)
                stream.accept(ticks)

        return message, expect

    def _push_masks(self):
        rng = self.rng
        stream_id = self.open_stream()
        stream = self.streams.get(stream_id)
        size = stream.codec.size if stream and stream.codec else 32
        masks = [rng.randrange(size) for _ in range(rng.randint(0, 40))]
        message = {"op": "push_masks", "stream": stream_id,
                   "masks": masks}
        mutation = rng.choice(["none", "none", "masks", "negative",
                               "bool", "range", "int64", "cap"])
        valid = stream is not None
        if mutation == "masks":
            message["masks"] = rng.choice(["07", 5, {}, None, [[1]]])
            valid = False
        elif mutation == "negative":
            masks.append(-1 - rng.randrange(5))
            valid = False
        elif mutation == "bool":
            masks.append(rng.choice([True, False]))
            valid = False
        elif mutation == "range":
            masks.append(rng.choice([size, size + 1, 1 << 31]))
            valid = False
        elif mutation == "int64":
            masks.append(rng.choice([1 << 63, 1 << 70, (1 << 64) + 3]))
            valid = False
        elif mutation == "cap":
            message["masks"] = [0] * (MAX_TICKS_PER_PUSH + 1)
            valid = False
        if stream is None or stream.codec is None:
            # Nothing to step pre-encoded masks with: the request's
            # error, answered before anything is queued.
            valid = False

        def expect(answer):
            assert answer["ok"] is valid, (mutation, answer)
            if not valid:
                return
            assert answer["accepted"] == len(masks)
            stream.accept([
                [symbol for bit, symbol in enumerate(stream.codec.symbols)
                 if mask >> bit & 1]
                for mask in masks
            ])

        return message, expect

    def _report_check(self, stream, report):
        assert "error" not in report, report
        assert report == stream.report()

    def _poll(self):
        stream_id = self.open_stream()
        stream = self.streams.get(stream_id)
        message = {"op": "poll", "stream": stream_id}
        if self.rng.random() < 0.2:
            message["stream"] = self.wrong()
            stream = None

        def expect(answer):
            assert answer["ok"] is (stream is not None), answer
            if stream is not None:
                self._report_check(stream, answer["report"])

        return message, expect

    def _close(self):
        stream_id = self.open_stream()
        stream = self.streams.get(stream_id)
        message = {"op": "close", "stream": stream_id}
        if self.rng.random() < 0.2:
            message["stream"] = self.wrong()
            stream = None

        def expect(answer):
            assert answer["ok"] is (stream is not None), answer
            if stream is not None:
                self._report_check(stream, answer["report"])
                del self.streams[stream_id]

        return message, expect

    def _corpus(self):
        rng = self.rng
        message = {"op": "corpus", "path": self.corpus_path}
        mutation = rng.choice(["none", "path", "missing", "directory",
                               "garbage", "key", "monitor"])
        valid = True
        if mutation == "path":
            message["path"] = self.wrong()
            valid = False
        elif mutation == "missing":
            message["path"] = os.path.join(self.directory, "nope.rtrc")
            valid = False
        elif mutation == "directory":
            message["path"] = self.directory
            valid = False
        elif mutation == "garbage":
            message["path"] = os.path.join(self.directory, "garbage.rtrc")
            valid = False
        elif mutation == "key":
            message["key"] = rng.choice(["k", 5, "../k", None])
            valid = message["key"] is None  # a null key is no key
        elif mutation == "monitor":
            monitor = message["monitor"] = rng.choice(
                WRONG_TYPES + ("bogus", "impl"))
            # A null monitor names the default one; whether an
            # implication reduces to one table is not this test's
            # business, only that the answer comes.
            valid = (True if monitor is None
                     else None if monitor == "impl" else False)

        def expect(answer):
            if valid is None:
                return
            assert answer["ok"] is valid, (mutation, answer)
            if valid:
                got = [(r["ticks"], r["detections"])
                       for r in answer["reports"]]
                assert got == self.corpus_reference

        return message, expect

    def _line(self):
        line = self.rng.choice([
            b"{", b"nope", b"\xff\xfe{", b"[1, 2]", b"null", b"42",
            b'"push"', b"{}", b'{"op": 5}', b'{"op": ["push"]}',
            b'{"op": {"push": 1}}', b'{"op": "launch"}',
            b'{"op": "push"', b"[]",
        ])

        def expect(answer):
            assert answer["ok"] is False, (line, answer)

        return line, expect


async def _exchange(reader, writer, line):
    writer.write(line + b"\n")
    await writer.drain()
    answer = await asyncio.wait_for(reader.readline(), ANSWER_BOUND_S)
    assert answer, f"connection closed after {line[:80]!r}"
    return json.loads(answer)


def test_request_line_fuzzer(tmp_path):
    specs = _specs()
    compiled = tr_compiled(specs["ocp"])
    rng = random.Random(20261018)
    lanes = [[rng.randrange(compiled.codec.size)
              for _ in range(rng.randint(0, 60))] for _ in range(5)]
    corpus_path = str(tmp_path / "corpus.rtrc")
    ColumnarTraceSet.from_mask_arrays(
        lanes, compiled.codec.symbols).save(corpus_path)
    (tmp_path / "garbage.rtrc").write_bytes(b"RTRC but not really")
    corpus_reference = [(r.ticks, r.detections)
                        for r in run_many_encoded(compiled, lanes)]
    service = MonitorService(specs, ServeConfig(port=0))
    fuzzer = _Fuzzer(rng, specs, corpus_path, corpus_reference,
                     str(tmp_path))

    async def scenario():
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=1 << 22)
            for _ in range(CASES):
                message, expect = fuzzer.case()
                line = (message if isinstance(message, bytes)
                        else json.dumps(message).encode())
                expect(await _exchange(reader, writer, line))
                pong = await _exchange(reader, writer, b'{"op": "ping"}')
                assert pong["ok"], pong
            for stream_id in sorted(fuzzer.streams):
                answer = await _exchange(reader, writer, json.dumps(
                    {"op": "close", "stream": stream_id}).encode())
                assert answer["ok"], answer
                fuzzer._report_check(fuzzer.streams[stream_id],
                                     answer["report"])
            writer.close()
        finally:
            await service.aclose()

    asyncio.run(scenario())


def _scenario(service, exchanges):
    """Run ``(message, check)`` pairs over one connection in order."""

    async def run():
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            for message, check in exchanges:
                check(await _exchange(reader, writer,
                                      json.dumps(message).encode()))
            writer.close()
        finally:
            await service.aclose()

    asyncio.run(run())


def test_stream_errors_name_a_repro_error():
    """The worker reports a failing stream as ``"{type}: {msg}"``; the
    type is always a :class:`~repro.errors.ReproError` subclass — here
    a monitor with no move for a tick, reached by ``push`` and by
    ``push_masks``."""
    from repro.logic.expr import EventRef, Not
    from repro.monitor.automaton import Monitor, Transition
    from repro.runtime.compiled import compile_monitor

    incomplete = compile_monitor(Monitor(
        "incomplete", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, EventRef("a"), (), 1),
            Transition(0, Not(EventRef("a")), (), 0),
        ],
        alphabet={"a"},
    ))
    service = MonitorService(dict(_specs(), incomplete=incomplete),
                             ServeConfig(port=0))
    errors = []

    def accepted(answer):
        assert answer["ok"], answer

    def closed(answer):
        errors.append(answer["report"]["error"])

    exchanges = []
    for index, push in enumerate((
            {"op": "push", "ticks": [[], ["a"], [], []]},
            {"op": "push_masks", "masks": [0, 1, 0]})):
        stream = f"e{index}"
        exchanges += [
            ({"op": "open", "stream": stream, "monitor": "incomplete"},
             accepted),
            (dict(push, stream=stream), accepted),
            ({"op": "close", "stream": stream}, closed),
        ]
    _scenario(service, exchanges)
    assert len(errors) == 2
    assert all(_names_a_repro_error(error) for error in errors), errors


def test_push_masks_a_stream_cannot_take_is_refused_before_queueing():
    """``push_masks`` on a stream with no one codec — the interpreted
    engine, an implication, a bank over two alphabets — answers a
    ServeError and queues nothing: the stream keeps taking ``push``
    ticks and closes with no error."""
    service = MonitorService(_specs(), ServeConfig(port=0))
    cases = (
        ({"monitor": "ocp", "engine": "interpreted"}, "pre-encoded tables",
         [["Addr"], []]),
        ({"monitor": "impl", "engine": "compiled"}, "detector specs",
         [["req"], ["ack"]]),
        ({"monitor": "alt"}, "one shared alphabet", [["req"], ["ack"]]),
    )
    reports = []
    exchanges = []
    for index, (opening, reason, ticks) in enumerate(cases):
        stream = f"m{index}"

        def refused(answer, reason=reason):
            assert answer["ok"] is False, answer
            assert reason in answer["error"], answer

        def accepted(answer):
            assert answer["ok"], answer

        exchanges += [
            (dict(opening, op="open", stream=stream), accepted),
            ({"op": "push_masks", "stream": stream, "masks": [1, 0]},
             refused),
            ({"op": "push", "stream": stream, "ticks": ticks}, accepted),
            ({"op": "close", "stream": stream},
             lambda answer: reports.append(answer["report"])),
        ]
    _scenario(service, exchanges)
    assert [report["ticks"] for report in reports] == [2, 2, 2]
    assert all("error" not in report for report in reports), reports
    assert service.metrics.protocol_errors == len(cases)
