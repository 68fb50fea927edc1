"""Columnar trace store, VCD conversion and the corpus cache.

Parsing, not checking, is the wall on real-waveform workloads: the
batch kernels step millions of ticks a second, and the VCD front-end
(:mod:`repro.trace.vcd_reader`) parses a few hundred thousand.
This module lets a dump be parsed once and checked many times:

* **``.rtrc``** — a versioned binary columnar trace format storing
  per-trace symbol-mask arrays pre-encoded against an
  :class:`~repro.logic.codec.AlphabetCodec` (the exact int layout the
  batch kernels step over), plus trace lengths, the codec
  fingerprint, and sampling metadata.  A set holds its masks in one
  ``array('i')``: a load reads the file, checks the crc and copies the
  payload in with ``frombytes``.  Every mask must lie in
  ``[0, 2^|symbols|)``: a set built or loaded with any other is a
  :class:`~repro.errors.TraceError`.  That range check is one C loop
  over the whole payload (:func:`repro.trace.vcd_native.mask_span`)
  when a compiler is available, Python's ``min``/``max`` otherwise.

* **conversion** — :func:`masks_from_vcd_text` and
  :func:`masks_from_vcd` parse a dump once, in this process, through
  :meth:`VcdReader.masks <repro.trace.vcd_reader.VcdReader.masks>`
  (the C block parser when a compiler is available, the Python one
  otherwise).

* **content-addressed corpus cache** — :func:`ingest_vcd` keys an
  on-disk :class:`~repro.cache.CorpusCache` entry by the dump's
  content digest, the signal binding, the codec fingerprint, and the
  sampling parameters, so a regression corpus is parsed once and warm
  re-checks read pre-encoded mask arrays straight off disk.

``.rtrc`` layout (version 1, all integers little-endian)::

    bytes 0..3    magic b"RTRC"
    bytes 4..7    format version (uint32)
    bytes 8..11   JSON header length in bytes (uint32)
    ...           UTF-8 JSON header: symbols, fingerprint, lengths,
                  payload crc32, free-form "meta" (clock, period,
                  source digest, ...)
    ...           zero padding to a 64-byte boundary
    payload       sum(lengths) int32 mask values, trace-major

A file is rejected (and a cache entry treated as a miss) when the
magic or version mismatches, the header is not that shape (symbols a
list of strings, lengths a list of non-negative integers, meta an
object), the symbols are not in a codec's order (sorted, distinct),
the size disagrees with the header, the payload crc32 does not
verify, or a mask lies outside the alphabet.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import zlib
from array import array
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro._lazy import lazy_exports
from repro.cache import CorpusCache
from repro.errors import TraceError
from repro.logic.codec import MAX_CODEC_SYMBOLS, AlphabetCodec
from repro.semantics.run import Trace
from repro.trace.vcd_reader import VcdReader

__all__ = [
    "RTRC_VERSION",
    "ColumnarTraceSet",
    "check_masks",
    "codec_fingerprint",
    "corpus_key",
    "ingest_vcd",
    "masks_from_vcd",
    "masks_from_vcd_text",
]

#: ``check_masks`` lives with the uncached dump loop it ends.
__getattr__, __dir__ = lazy_exports(
    __name__, {"check_masks": "repro.trace.shard"})


RTRC_MAGIC = b"RTRC"
RTRC_VERSION = 1

#: Payload alignment: mask arrays start on this boundary whatever the
#: JSON header length.
_ALIGN = 64


def codec_fingerprint(codec: Union[AlphabetCodec, Iterable[str]]) -> str:
    """Stable hex digest of a codec's symbol ordering.

    Two codecs with the same fingerprint produce identical mask
    streams for any trace, so the fingerprint is what a ``.rtrc`` file
    records and what cache keys embed.
    """
    symbols = (codec.symbols if isinstance(codec, AlphabetCodec)
               else tuple(sorted(set(codec))))
    payload = "\x00".join(symbols).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _span_error(low: int, high: int, n_symbols: int) -> TraceError:
    size = 1 << n_symbols
    return TraceError(
        f"columnar masks span {low}..{high}; an alphabet of "
        f"{n_symbols} symbols allows 0..{size - 1}"
    )


class ColumnarTraceSet:
    """An ordered set of pre-encoded mask streams over one codec.

    The masks live in one flat ``array('i')``; ``masks(i)`` /
    ``mask_arrays()`` return each lane as its own ``array('i')``, the
    input every batch runner takes.  ``symbols`` must be in a codec's
    order (sorted, distinct): mask bits are read in that order.
    """

    __slots__ = ("symbols", "lengths", "meta", "_flat", "_offsets")

    def __init__(self, symbols: Sequence[str], lengths: Sequence[int],
                 flat, meta: Optional[dict] = None):
        self.symbols: Tuple[str, ...] = tuple(symbols)
        if list(self.symbols) != sorted(set(self.symbols)):
            # The codec fingerprint is order-blind: a set in any other
            # order would be checked on silently wrong bits.
            raise TraceError(
                f"columnar symbols {list(self.symbols)} are not a "
                "codec's order (sorted, distinct)"
            )
        self.lengths: Tuple[int, ...] = tuple(int(n) for n in lengths)
        if any(n < 0 for n in self.lengths):
            raise TraceError("negative trace length in columnar set")
        self.meta = dict(meta) if meta else {}
        offsets = [0]
        for length in self.lengths:
            offsets.append(offsets[-1] + length)
        self._offsets = offsets
        if len(flat) != offsets[-1]:
            raise TraceError(
                f"columnar payload holds {len(flat)} masks; lengths "
                f"sum to {offsets[-1]}"
            )
        if type(flat) is not array or flat.typecode != "i":
            flat = _int32_masks([flat], len(self.symbols))
        if len(flat):
            # One pass over the flat buffer keeps every kernel's table
            # lookups in range.
            from repro.trace.vcd_native import mask_span

            low, high = mask_span(flat)
            if low < 0 or high >= 1 << len(self.symbols):
                raise _span_error(low, high, len(self.symbols))
        self._flat = flat

    # -- construction ----------------------------------------------------
    @classmethod
    def from_mask_arrays(cls, mask_arrays: Sequence[Sequence[int]],
                         symbols: Sequence[str],
                         meta: Optional[dict] = None) -> "ColumnarTraceSet":
        symbols = tuple(symbols)
        lengths = [len(masks) for masks in mask_arrays]
        return cls(symbols, lengths,
                   _int32_masks(mask_arrays, len(symbols)), meta=meta)

    @classmethod
    def from_traces(cls, traces: Sequence[Trace],
                    alphabet: Optional[Iterable[str]] = None,
                    meta: Optional[dict] = None) -> "ColumnarTraceSet":
        """Encode whole traces; ``alphabet`` defaults to their union."""
        if alphabet is None:
            symbols: set = set()
            for trace in traces:
                symbols |= set(trace.alphabet)
            alphabet = symbols
        codec = AlphabetCodec(alphabet)
        return cls.from_mask_arrays(
            codec.encode_many(list(traces)), codec.symbols, meta=meta
        )

    # -- observers -------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        return codec_fingerprint(self.symbols)

    @property
    def n_traces(self) -> int:
        return len(self.lengths)

    @property
    def total_ticks(self) -> int:
        return self._offsets[-1]

    def codec(self) -> AlphabetCodec:
        if len(self.symbols) > MAX_CODEC_SYMBOLS:
            # Such a set loads (its masks are range-checked), but no
            # monitor has its alphabet.
            raise TraceError(
                f"columnar set of {len(self.symbols)} symbols has no "
                f"codec: the dense-table cap is {MAX_CODEC_SYMBOLS}"
            )
        return AlphabetCodec(self.symbols)

    def masks(self, index: int) -> array:
        """Trace ``index``'s mask stream, as its own ``array('i')``."""
        start, end = self._offsets[index], self._offsets[index + 1]
        return self._flat[start:end]

    def mask_arrays(self) -> list:
        return [self.masks(index) for index in range(self.n_traces)]

    def trace(self, index: int) -> Trace:
        """Decode one stream back into a :class:`Trace` (tests, tools)."""
        codec = self.codec()
        return Trace([codec.decode(mask) for mask in self.masks(index)],
                     self.symbols)

    def __len__(self) -> int:
        return self.n_traces

    def __repr__(self):
        return (
            f"ColumnarTraceSet({self.n_traces} traces, "
            f"{self.total_ticks} ticks, "
            f"alphabet {list(self.symbols)})"
        )

    # -- serialisation ---------------------------------------------------
    def to_bytes(self) -> bytes:
        flat = self._flat
        if sys.byteorder == "big":  # pragma: no cover - LE hosts
            flat = array("i", flat)
            flat.byteswap()
        payload = flat.tobytes()
        header = json.dumps({
            "symbols": list(self.symbols),
            "fingerprint": self.fingerprint,
            "lengths": list(self.lengths),
            "payload_crc32": zlib.crc32(payload),
            "meta": self.meta,
        }, sort_keys=True).encode("utf-8")
        prefix = RTRC_MAGIC + struct.pack("<II", RTRC_VERSION, len(header))
        pad = (-(len(prefix) + len(header))) % _ALIGN
        return prefix + header + b"\x00" * pad + payload

    def save(self, path: Union[str, "os.PathLike[str]"]) -> str:
        """Write atomically (tmp file + rename); returns the path."""
        path = os.fspath(path)
        data = self.to_bytes()
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as stream:
            stream.write(data)
        os.replace(tmp, path)
        return path

    @classmethod
    def from_bytes(cls, data, verify: bool = True) -> "ColumnarTraceSet":
        if len(data) < 12 or bytes(data[:4]) != RTRC_MAGIC:
            raise TraceError("not a columnar trace (.rtrc) payload")
        version, header_len = struct.unpack("<II", data[4:12])
        if version != RTRC_VERSION:
            raise TraceError(
                f"columnar trace format version {version} unsupported "
                f"(this build reads version {RTRC_VERSION})"
            )
        if len(data) < 12 + header_len:
            raise TraceError("truncated columnar trace header")
        try:
            header = json.loads(bytes(data[12:12 + header_len]))
            symbols = header["symbols"]
            lengths = header["lengths"]
            crc = header["payload_crc32"]
            meta = header.get("meta", {})
        except (ValueError, KeyError, TypeError, RecursionError):
            raise TraceError("corrupt columnar trace header")
        if not (isinstance(symbols, list)
                and all(type(symbol) is str for symbol in symbols)
                and isinstance(lengths, list)
                and all(type(n) is int and n >= 0 for n in lengths)
                and isinstance(meta, dict)):
            raise TraceError("corrupt columnar trace header")
        offset = 12 + header_len
        offset += (-offset) % _ALIGN
        total = sum(lengths)
        if len(data) != offset + 4 * total:
            raise TraceError(
                f"columnar payload is {len(data) - offset} bytes; header "
                f"promises {4 * total}"
            )
        payload = memoryview(data)[offset:]
        if verify and zlib.crc32(payload) != crc:
            raise TraceError("columnar payload failed its crc32 check")
        flat = array("i")
        flat.frombytes(payload)
        if sys.byteorder == "big":  # pragma: no cover - LE hosts
            flat.byteswap()
        return cls(symbols, lengths, flat, meta=meta)

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"],
             verify: bool = True) -> "ColumnarTraceSet":
        """Read a ``.rtrc`` file.

        Magic, version, header shape, payload size, (unless
        ``verify=False``) the payload crc32 and the mask range are all
        checked before any mask is served; every failure is a
        :class:`TraceError`.
        """
        with open(os.fspath(path), "rb") as stream:
            return cls.from_bytes(stream.read(), verify=verify)


def _int32_masks(mask_arrays, n_symbols: int) -> array:
    """Concatenate mask sequences into one ``array('i')``; a mask
    beyond int32 is outside every alphabet a set can hold."""
    from repro.runtime.native import flatten_masks

    try:
        return flatten_masks(mask_arrays)
    except OverflowError:
        values = [mask for masks in mask_arrays for mask in masks]
        raise _span_error(min(values), max(values), n_symbols) from None


# -- VCD conversion -----------------------------------------------------------
def masks_from_vcd_text(
    text: str,
    codec: AlphabetCodec,
    binding=None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    jobs: Optional[int] = 1,
) -> array:
    """Encode a VCD document to one per-tick mask array.

    This is :meth:`VcdReader.masks
    <repro.trace.vcd_reader.VcdReader.masks>` over the text: one parse,
    in this process.  ``jobs`` has no effect; it stays only because
    ``perfbench/traced.py`` passes it.
    """
    return VcdReader.from_text(text, binding=binding).masks(
        codec, clock=clock, period=period, offset=offset, until=until)


def masks_from_vcd(
    source: Union[str, "os.PathLike[str]"],
    codec: AlphabetCodec,
    binding=None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    jobs: Optional[int] = 1,
) -> array:
    """:func:`masks_from_vcd_text` over a dump file, streamed in blocks
    (``jobs`` has no effect; ``perfbench/traced.py`` passes it)."""
    with VcdReader(os.fspath(source), binding=binding) as reader:
        return reader.masks(codec, clock=clock, period=period,
                            offset=offset, until=until)


# -- content-addressed ingest ------------------------------------------------
def corpus_key(
    content_digest: str,
    codec: Union[AlphabetCodec, Iterable[str]],
    binding=None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
) -> str:
    """Cache key of one (dump, binding, codec, sampling) combination.

    Any ingredient changing — dump bytes, signal binding, codec symbol
    ordering, sampling discipline, or the ``.rtrc`` format version —
    yields a different key, so stale entries are never *read*, only
    orphaned (and rewritten under the new key on the next miss).
    """
    payload = json.dumps({
        "format": RTRC_VERSION,
        "content": content_digest,
        "codec": codec_fingerprint(codec),
        "binding": binding.fingerprint() if binding is not None else None,
        "clock": clock,
        "period": period,
        "offset": offset,
        "until": until,
    }, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def ingest_vcd(
    path: Union[str, "os.PathLike[str]"],
    codec: AlphabetCodec,
    cache: Optional[Union[CorpusCache, str]] = None,
    binding=None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    refresh: bool = False,
) -> Tuple[ColumnarTraceSet, bool, Optional[str]]:
    """One dump -> ``(columnar set, cache_hit, cache_path)``.

    With a ``cache`` (a :class:`~repro.cache.CorpusCache` or its root
    directory), a warm call skips parsing entirely: the entry keyed by
    the dump's content digest + binding + codec fingerprint + sampling
    parameters is loaded and verified (crc32, version, fingerprint) —
    a corrupted, truncated, or stale entry is treated as a miss,
    evicted, and rebuilt from the dump.  ``refresh=True`` forces the
    rebuild.
    """
    path = os.fspath(path)
    with open(path, "rb") as stream:
        data = stream.read()
    digest = hashlib.sha256(data).hexdigest()
    fingerprint = codec_fingerprint(codec)
    entry_path: Optional[str] = None
    key: Optional[str] = None
    if cache is not None:
        if not isinstance(cache, CorpusCache):
            cache = CorpusCache(cache)
        key = corpus_key(digest, codec, binding=binding, clock=clock,
                         period=period, offset=offset, until=until)
        entry_path = cache.path_for(key)
        if not refresh:
            blob = cache.load_bytes(key)
            if blob is not None:
                try:
                    loaded = ColumnarTraceSet.from_bytes(blob)
                    if loaded.fingerprint != fingerprint:
                        raise TraceError("cached codec fingerprint mismatch")
                    return loaded, True, entry_path
                except TraceError:
                    # Never serve a doubtful entry: drop it, re-parse.
                    cache.invalidate(key)
    text = data.decode("utf-8", "replace")
    masks = masks_from_vcd_text(
        text, codec, binding=binding, clock=clock, period=period,
        offset=offset, until=until,
    )
    built = ColumnarTraceSet.from_mask_arrays([masks], codec.symbols, meta={
        "source": os.path.basename(path),
        "source_sha256": digest,
        "clock": clock,
        "period": period,
        "offset": offset,
        "until": until,
    })
    if cache is not None and key is not None:
        cache.store_bytes(key, built.to_bytes())
    return built, False, entry_path


def check_vcd_cached(
    monitor,
    paths: Sequence[str],
    cache: Union[CorpusCache, str],
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    binding=None,
    engine: str = "auto",
    max_recorded: int = 10_000,
) -> list:
    """Check dumps through the corpus cache; one StreamReport per path.

    The cache-aware twin of
    :func:`~repro.trace.shard.run_sharded_vcd`: each dump is resolved
    through :func:`ingest_vcd` (warm hits read pre-encoded masks off
    disk; misses parse the dump and populate the cache) and its masks
    go through :func:`~repro.trace.shard.check_masks`, the step the
    uncached path ends with too.
    """
    from repro.runtime.compiled import as_compiled
    from repro.runtime.engines import AUTO, require_backend
    from repro.trace.shard import check_masks

    if engine != AUTO:
        # Validate up front so an empty path list still rejects a bad
        # engine with the registry's uniform wording.
        require_backend(engine, "batch", error_cls=TraceError)
    compiled = as_compiled(monitor)
    if not isinstance(cache, CorpusCache):
        cache = CorpusCache(cache)
    reports = []
    for path in paths:
        columns, _, _ = ingest_vcd(
            path, compiled.codec, cache=cache, binding=binding,
            clock=clock, period=period, offset=offset, until=until,
        )
        reports.append(check_masks(compiled, columns.masks(0), engine,
                                   max_recorded=max_recorded))
    return reports
