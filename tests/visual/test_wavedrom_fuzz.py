"""Seeded WaveDrom-document fuzzer: decode to a trace or a typed error.

Each case takes a valid bi-level WaveDrom document and damages it
either as data — a document, ``signal`` array, lane, ``name`` or
``wave`` of the wrong JSON type or missing, wave strings with
characters outside the bi-level subset, extra and duplicate lanes —
or as text: truncation at a random offset, inserted, deleted and
replaced characters, non-ASCII and deeply nested brackets.  The result
goes to :func:`~repro.visual.wavedrom.wavedrom_to_trace` as text and,
when it parses, as data; every decode must return a
:class:`~repro.semantics.run.Trace` or raise a
:class:`~repro.errors.ReproError`, the same way for both forms.
Every twentieth case also runs through ``repro check`` on a file,
which must exit 0, 2 or 3 with at most one ``error:`` line.
``REPRO_FUZZ_CASES`` sets the case count (default 600).
"""

import io
import json
import os
import random

from repro.cli import main
from repro.errors import ReproError
from repro.semantics.run import Trace
from repro.visual.wavedrom import wavedrom_to_trace

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "600"))

#: Values of every JSON type, for fields that must hold another one.
WRONG_TYPES = (5, 2.5, True, False, None, [], ["x"], {}, {"a": 1}, "",
               "req")

#: Wave characters: the bi-level subset and WaveDrom's other ones.
WAVE_CHARS = list("01hlHL.") * 3 + list("23456789=xzudpnPN|<>") + [
    "\u00e9", "\ufffd", " "]

#: Characters spliced into the JSON text.
TEXT_CHARS = list('{}[]":,') + list("0123456789-+.eE") + [
    " ", "\n", "\\", "t", "n", "\u00e9", "\x00"]

SPEC = """
chart handshake {
  instances M, S;
  tick: M -> S : req;
  tick: S -> M : ack;
  arrow done: req -> ack;
}
"""


def _valid(rng):
    names = rng.sample(["req", "ack", "gnt", "data"], rng.randint(1, 4))
    lanes = [
        {"name": name, "wave": "".join(
            rng.choice("01.hl") for _ in range(rng.randint(0, 9)))}
        for name in names
    ]
    return {"signal": lanes, "config": {"hscale": 1}, "head": {"text": "t"}}


def _damage_data(rng, document):
    lanes = document["signal"]
    lane = rng.choice(lanes)
    kind = rng.randrange(9)
    if kind == 0:
        return rng.choice(WRONG_TYPES + (lanes,))
    if kind == 1:
        if rng.random() < 0.3:
            del document["signal"]
        else:
            document["signal"] = rng.choice(WRONG_TYPES)
    elif kind == 2:
        lanes[lanes.index(lane)] = rng.choice(
            WRONG_TYPES + (["group", dict(lane)], {"wave": "01"}))
    elif kind in (3, 4):
        field = "name" if kind == 3 else "wave"
        if rng.random() < 0.3:
            del lane[field]
        else:
            lane[field] = rng.choice(WRONG_TYPES)
    elif kind == 5:
        lane["wave"] = "".join(rng.choice(WAVE_CHARS)
                               for _ in range(rng.randint(0, 12)))
    elif kind == 6:
        lanes.append(dict(lane))
    elif kind == 7:
        lane.update(rng.choice(({"node": ".a"}, {"data": ["x"]},
                                {"phase": 0.5}, {"period": 2})))
    else:
        lanes.insert(rng.randint(0, len(lanes)), {})
    return document


def _damage_text(rng, text):
    kind = rng.randrange(5)
    if kind == 0:
        return text[:rng.randint(0, len(text))]
    if kind == 4:
        return rng.choice(("[", "{\"signal\": [")) * rng.choice(
            (2, 100, 100000))
    position = rng.randint(0, len(text))
    char = rng.choice(TEXT_CHARS)
    if kind == 1:
        return text[:position] + char + text[position:]
    if kind == 2:
        return text[:position] + text[position + 1:]
    return text[:position] + char + text[position + 1:]


def _case(seed):
    """The damaged document of one case, as JSON text."""
    rng = random.Random(seed)
    document = _valid(rng)
    if rng.random() < 0.5:
        return json.dumps(_damage_data(rng, document))
    text = json.dumps(document)
    for _ in range(rng.randint(1, 3)):
        text = _damage_text(rng, text)
    return text


def _decode(text) -> bool:
    """Decode ``text`` as text and, when it parses, as data; whether
    the text decoded."""
    forms = [text]
    try:
        forms.append(json.loads(text))
    except (ValueError, RecursionError):
        pass
    decoded = []
    for form in forms:
        try:
            trace = wavedrom_to_trace(form)
        except ReproError:
            decoded.append(False)
            continue
        assert isinstance(trace, Trace)
        assert all(isinstance(symbol, str) for symbol in trace.alphabet)
        decoded.append(True)
    assert len(set(decoded)) == 1  # text and data agree
    return decoded[0]


def test_wavedrom_mutation_fuzzer(tmp_path):
    spec = tmp_path / "spec.cesc"
    spec.write_text(SPEC)
    trace_path = tmp_path / "trace.json"
    outcomes = {True: 0, False: 0, "cli": 0}
    for seed in range(CASES):
        text = _case(seed)
        try:
            outcomes[_decode(text)] += 1
        except Exception as error:  # noqa: BLE001 - report the seed
            raise AssertionError(f"seed {seed}: {text[:200]!r}") from error
        if seed % 20:
            continue
        trace_path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        status = main(["check", str(spec), "handshake", str(trace_path)],
                      out=out)
        errors = [line for line in out.getvalue().splitlines()
                  if line.startswith("error:")]
        assert status in (0, 2, 3) and len(errors) <= 1, \
            (seed, out.getvalue())
        outcomes["cli"] += 1
    assert outcomes["cli"] == (CASES + 19) // 20
    # Mild enough that some damaged documents still decode.
    assert outcomes[True] and outcomes[False]
