"""Seeded fuzzer for ``.rtrc`` bytes: every input loads or is refused.

Each case builds a well-formed ``.rtrc`` image, then mutates one part
of it — a payload mask (negative, ``2^bits``, the extremes of int32),
a header field (symbol counts of 31 and 32 or more, symbols out of a
codec's order, lengths that lie or have the wrong type, a meta of the
wrong type), the header's JSON
bytes, the header-length word, the magic or version, or the file's
length — and recomputes the payload crc32 wherever a real writer
would have, so the input reaches the checks behind the crc: the
header's shape and the range check of every mask.  Each input goes
to :meth:`ColumnarTraceSet.from_bytes` (and every fifth to
:meth:`ColumnarTraceSet.load`) and must, in bounded time, give the
masks :func:`reference_load` reads from the same bytes, or raise
:class:`~repro.errors.TraceError` where the reference refuses them.
It runs with the C range check and under ``REPRO_NO_CC=1`` (Python's
``min``/``max``).  ``REPRO_FUZZ_CASES`` sets the case count (default
210).
"""

import json
import os
import random
import struct
import time
import zlib

import pytest

from repro.errors import TraceError
from repro.trace import vcd_native
from repro.trace.columnar import RTRC_VERSION, ColumnarTraceSet

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "210"))

#: Seconds any one load may take.
LOAD_BOUND_S = 10.0

_INT32 = (-(1 << 31), (1 << 31) - 1)


def reference_load(data: bytes):
    """The ``.rtrc`` layout read plainly, one rule at a time.

    ``("ok", symbols, lanes, meta)`` for an image a reader must accept,
    ``("refused", why)`` for one it must refuse; ``why`` is
    ``"range"`` when only a mask outside ``[0, 2^|symbols|)`` is
    wrong.
    """
    if len(data) < 12 or data[:4] != b"RTRC":
        return ("refused", "magic")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != RTRC_VERSION or len(data) < 12 + header_len:
        return ("refused", "prefix")
    try:
        header = json.loads(data[12:12 + header_len])
    except (ValueError, RecursionError):
        return ("refused", "json")
    if not isinstance(header, dict) or not {
            "symbols", "lengths", "payload_crc32"} <= set(header):
        return ("refused", "fields")
    symbols, lengths = header["symbols"], header["lengths"]
    meta = header.get("meta", {})
    if not (isinstance(symbols, list)
            and all(isinstance(s, str) for s in symbols)
            and isinstance(lengths, list)
            and all(isinstance(n, int) and not isinstance(n, bool)
                    and n >= 0 for n in lengths)
            and isinstance(meta, dict)):
        return ("refused", "shape")
    if symbols != sorted(set(symbols)):
        return ("refused", "order")
    start = 12 + header_len
    start += -start % 64
    if len(data) - start != 4 * sum(lengths):
        return ("refused", "size")
    payload = data[start:]
    if zlib.crc32(payload) != header["payload_crc32"]:
        return ("refused", "crc")
    masks = struct.unpack(f"<{len(payload) // 4}i", payload)
    if any(not 0 <= mask < 2 ** len(symbols) for mask in masks):
        return ("refused", "range")
    lanes, cursor = [], 0
    for length in lengths:
        lanes.append(list(masks[cursor:cursor + length]))
        cursor += length
    return ("ok", symbols, lanes, meta)


_MATCHING, _MISSING = object(), object()


def _image(header: dict, masks, crc=_MATCHING) -> bytes:
    """A ``.rtrc`` image of ``header`` over int32 ``masks``; ``crc`` is
    the header's ``payload_crc32`` (by default the payload's own)."""
    payload = struct.pack(f"<{len(masks)}i", *masks)
    header = dict(header)
    if crc is _MATCHING:
        crc = zlib.crc32(payload)
    if crc is not _MISSING:
        header["payload_crc32"] = crc
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = b"RTRC" + struct.pack("<II", RTRC_VERSION, len(blob))
    return prefix + blob + b"\x00" * (-(len(prefix) + len(blob)) % 64) \
        + payload


class _Cases:
    """Draws one mutated image per call, cycling through the kinds."""

    KINDS = ("valid", "mask", "mask", "width", "width", "lengths",
             "field", "json", "header_len", "prefix", "size", "crc",
             "flip")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def base(self, bits=None):
        rng = self.rng
        if bits is None:
            bits = rng.choice([0, 1, 3, 5, 8, 20])
        symbols = [f"s{index:02d}" for index in range(bits)]
        lengths = [rng.randint(0, 12) for _ in range(rng.randint(0, 5))]
        top = min(1 << bits, 1 << 31)
        masks = [rng.randrange(top) for _ in range(sum(lengths))]
        header = {"symbols": symbols, "lengths": lengths,
                  "fingerprint": "f" * 64, "meta": {"clock": "clk"}}
        return header, masks

    def draw(self, index: int) -> bytes:
        kind = self.KINDS[index % len(self.KINDS)]
        return getattr(self, f"_{kind}")()

    def _with_masks(self, bits=None):
        header, masks = self.base(bits)
        while not masks:
            header, masks = self.base(bits)
        return header, masks

    def _valid(self):
        return _image(*self.base())

    def _mask(self):
        rng = self.rng
        header, masks = self._with_masks()
        bits = len(header["symbols"])
        masks[rng.randrange(len(masks))] = rng.choice([
            -1, -rng.randint(1, 1 << 20), _INT32[0], _INT32[1],
            min(1 << bits, _INT32[1]), (1 << bits) - 1,
            rng.randint(*_INT32)])
        return _image(header, masks)

    def _width(self):
        """31 and 32+ symbols: every non-negative int32 is in range."""
        rng = self.rng
        header, masks = self._with_masks(rng.choice([30, 31, 32, 33, 40]))
        masks[rng.randrange(len(masks))] = rng.choice([
            _INT32[1], 1 << 30, (1 << 30) - 1, -1, _INT32[0], 0])
        return _image(header, masks)

    def _lengths(self):
        rng = self.rng
        header, masks = self.base()
        lengths = header["lengths"]
        header["lengths"] = rng.choice([
            lengths + [1], lengths[:-1], [-1] + lengths,
            [float(n) for n in lengths] or [0.0], [True] * len(masks),
            str(lengths), {"n": lengths}, None,
            [1 << 40], [0] * 50 + lengths])
        return _image(header, masks)

    def _field(self):
        rng = self.rng
        header, masks = self.base()
        field = rng.choice(["symbols", "meta", "payload_crc32"])
        value = _MISSING if rng.random() < 0.3 else rng.choice([
            5, 2.5, True, None, "abc", [1, 2], ["a", 3], {"a": 1}, [],
            ["b", "a"], ["a", "a"], ["a", "b"]])
        if field == "payload_crc32":
            return _image(header, masks, crc=value)
        if value is _MISSING:
            del header[field]
        else:
            header[field] = value
        return _image(header, masks)

    def _json(self):
        rng = self.rng
        image = bytearray(_image(*self.base()))
        header_len = struct.unpack("<I", image[8:12])[0]
        choice = rng.random()
        if choice < 0.4:
            position = 12 + rng.randrange(header_len)
            image[position] = rng.randrange(256)
            return bytes(image)
        body = rng.choice([
            b"[" * 5000, b"{" * 3000, b"null", b"[]", b"\xff\xfe{}",
            b'{"symbols": [], "lengths": [], "payload_crc32": 0, '
            b'"meta": {}}',
            b'{"symbols": [], "lengths": [NaN], "payload_crc32": 0}',
            b'{"symbols": [], "lengths": [1e400], "payload_crc32": 0}',
            b'{"symbols": [], "lengths": [' + b"9" * 5000
            + b'], "payload_crc32": 0}'])
        prefix = b"RTRC" + struct.pack("<II", RTRC_VERSION, len(body))
        return prefix + body + b"\x00" * (-(len(prefix) + len(body)) % 64)

    def _header_len(self):
        rng = self.rng
        image = bytearray(_image(*self.base()))
        header_len = struct.unpack("<I", image[8:12])[0]
        image[8:12] = struct.pack("<I", rng.choice([
            0, 1, header_len - 1, header_len + 1, header_len + 64,
            len(image), 0xFFFFFFFF]) & 0xFFFFFFFF)
        return bytes(image)

    def _prefix(self):
        rng = self.rng
        image = bytearray(_image(*self.base()))
        if rng.random() < 0.5:
            image[rng.randrange(4)] ^= 1 << rng.randrange(8)
        else:
            image[4:8] = struct.pack("<I", rng.choice(
                [0, RTRC_VERSION + 1, 0xFFFFFFFF]))
        return bytes(image)

    def _size(self):
        rng = self.rng
        image = _image(*self.base())
        cut = rng.choice([0, 3, 11, 12, len(image) - 1, len(image) - 4])
        return rng.choice([image[:max(cut, 0)], image + b"\x00" * 4,
                           image + b"\x01\x02"])

    def _crc(self):
        header, masks = self._with_masks()
        good = zlib.crc32(struct.pack(f"<{len(masks)}i", *masks))
        return _image(header, masks,
                      crc=good ^ (1 << self.rng.randrange(32)))

    def _flip(self):
        """One flipped payload byte behind a recomputed crc: reaches
        the range check with whatever the flip made of the mask."""
        rng = self.rng
        header, masks = self._with_masks(rng.choice([3, 5, 31, 32]))
        payload = bytearray(struct.pack(f"<{len(masks)}i", *masks))
        payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
        flipped = list(struct.unpack(f"<{len(masks)}i", payload))
        return _image(header, flipped)


def _load(data: bytes, path=None):
    if path is not None:
        path.write_bytes(data)
        return ColumnarTraceSet.load(path)
    return ColumnarTraceSet.from_bytes(data)


@pytest.mark.parametrize("cc", ["cc", "no_cc"])
def test_rtrc_bytes_fuzzer(cc, monkeypatch, tmp_path):
    if cc == "no_cc":
        monkeypatch.setenv("REPRO_NO_CC", "1")
    else:
        monkeypatch.delenv("REPRO_NO_CC", raising=False)
        if not vcd_native.available():
            pytest.skip("no C compiler: the no_cc case covers this host")
    cases = _Cases(seed=20261019)
    outcomes = {}
    for index in range(CASES):
        data = cases.draw(index)
        expected = reference_load(data)
        path = tmp_path / f"case{index}.rtrc" if index % 5 == 0 else None
        start = time.perf_counter()
        try:
            loaded = _load(data, path)
        except TraceError:
            loaded = None
        elapsed = time.perf_counter() - start
        assert elapsed < LOAD_BOUND_S, (index, elapsed)
        if path is not None:
            path.unlink()
        outcome = expected[0] if expected[0] == "ok" else expected[1]
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if expected[0] == "refused":
            assert loaded is None, (index, expected, data[:200])
            continue
        assert loaded is not None, (index, data[:200])
        _, symbols, lanes, meta = expected
        assert list(loaded.symbols) == symbols
        assert [list(lane) for lane in loaded.mask_arrays()] == lanes
        assert loaded.meta == meta
    if CASES >= 2 * len(_Cases.KINDS):
        # The mutations reach past the crc: accepted sets, and masks
        # refused by the range check alone.
        assert outcomes.get("ok", 0) >= 2, outcomes
        assert outcomes.get("range", 0) >= 2, outcomes
