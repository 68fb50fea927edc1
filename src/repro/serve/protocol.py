"""Wire protocol of the checking service: newline-delimited JSON.

One request per line, one JSON object per request, ``op`` selects the
operation — the framing a ``telnet``/``nc`` session can drive by hand
and any language's standard library can speak.  Responses are also one
JSON object per line; every response carries ``ok`` and, where a
request named a stream, echoes ``stream`` so pipelined clients can
match answers to questions.

Requests::

    {"op": "open",  "stream": ID, "monitor"?: NAME}
    {"op": "push",  "stream": ID, "ticks": [[SYM, ...], ...]}
    {"op": "push_masks", "stream": ID, "masks": [INT, ...]}
    {"op": "poll",  "stream": ID}
    {"op": "close", "stream": ID}
    {"op": "corpus", "path"?: FILE.rtrc, "key"?: CACHE_KEY,
     "monitor"?: NAME}
    {"op": "metrics"}
    {"op": "ping"}

A ``push`` tick is the list of symbols *true* at that tick (the wire
form of a :class:`~repro.logic.valuation.Valuation`); a detector
stream over one codec turns it straight into that codec's mask
(:func:`ticks_to_masks`).  ``push_masks`` ships pre-encoded codec
masks instead — the zero-decode path for clients replaying ``.rtrc``
corpora.  The same port also answers
plain ``GET /health`` and ``GET /metrics`` HTTP requests (see
:mod:`repro.serve.server`), so one endpoint serves both the data
plane and the ops loop.
"""

from __future__ import annotations

import json
from typing import List

from repro.errors import ServeError

__all__ = [
    "MAX_LINE_BYTES",
    "MAX_TICKS_PER_PUSH",
    "decode_request",
    "encode_message",
    "error_message",
    "masks_from_wire",
    "ticks_from_wire",
    "ticks_to_masks",
]

#: Hard cap on one request line (the asyncio reader limit): a single
#: oversized request must not buffer unbounded bytes in the server.
MAX_LINE_BYTES = 1 << 20

#: Hard cap on ticks per push: backpressure is per *chunk*, so one
#: gigantic chunk would be a bounded-memory loophole.
MAX_TICKS_PER_PUSH = 65536

_OPS = frozenset(
    ("open", "push", "push_masks", "poll", "close", "corpus",
     "metrics", "ping")
)


def decode_request(line: bytes) -> dict:
    """Parse one request line into its message dict (validated ``op``)."""
    try:
        message = json.loads(line)
    except ValueError:
        raise ServeError("request is not valid JSON")
    if not isinstance(message, dict):
        raise ServeError("request must be a JSON object")
    op = message.get("op")
    if not isinstance(op, str) or op not in _OPS:
        raise ServeError(
            f"unknown op {op!r} (choose from {sorted(_OPS)})"
        )
    return message


def encode_message(message: dict) -> bytes:
    """One response object as a compact JSON line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def error_message(error, stream=None) -> dict:
    message = {"ok": False, "error": str(error)}
    if stream is not None:
        message["stream"] = stream
    return message


def _check_ticks(ticks) -> None:
    if not isinstance(ticks, list):
        raise ServeError("push needs 'ticks': a list of symbol lists")
    if len(ticks) > MAX_TICKS_PER_PUSH:
        raise ServeError(
            f"push of {len(ticks)} ticks exceeds the per-request cap "
            f"of {MAX_TICKS_PER_PUSH}; split the chunk"
        )


_BAD_TICK = "each tick must be a list of true-symbol strings"


def ticks_from_wire(ticks) -> List[List[str]]:
    """Validate a ``push`` payload: a list of true-symbol lists."""
    _check_ticks(ticks)
    for tick in ticks:
        if not isinstance(tick, list) or not all(
            isinstance(symbol, str) for symbol in tick
        ):
            raise ServeError(_BAD_TICK)
    return ticks


def ticks_to_masks(ticks, codec) -> List[int]:
    """Validate a ``push`` payload and encode it under ``codec``.

    One pass does :func:`ticks_from_wire`'s checks, with its error
    texts, and ORs each symbol's bit into the tick's mask.  A symbol
    outside the alphabet adds no bit, and duplicates and order do not
    matter, so every mask equals ``codec.encode(Valuation(tick))``
    and lies in the codec's range.
    """
    _check_ticks(ticks)
    bit = codec.bit_of.get
    masks: List[int] = []
    append = masks.append
    for tick in ticks:
        if not isinstance(tick, list):
            raise ServeError(_BAD_TICK)
        mask = 0
        for symbol in tick:
            if not isinstance(symbol, str):
                raise ServeError(_BAD_TICK)
            mask |= bit(symbol, 0)
        append(mask)
    return masks


def masks_from_wire(masks) -> List[int]:
    """Validate a ``push_masks`` payload: a list of codec masks."""
    if not isinstance(masks, list):
        raise ServeError("push_masks needs 'masks': a list of integers")
    if len(masks) > MAX_TICKS_PER_PUSH:
        raise ServeError(
            f"push of {len(masks)} masks exceeds the per-request cap "
            f"of {MAX_TICKS_PER_PUSH}; split the chunk"
        )
    for mask in masks:
        # bool is an int subclass; a JSON true/false here is a bug.
        if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0:
            raise ServeError("masks must be non-negative integers")
    return masks
