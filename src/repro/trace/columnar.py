"""Columnar trace store, VCD conversion and the corpus cache.

Parsing, not checking, is the wall on real-waveform workloads: the
batch kernels step millions of ticks a second, and the VCD front-end
(:mod:`repro.trace.vcd_reader`) parses a few hundred thousand.
This module lets a dump be parsed once and checked many times:

* **``.rtrc``** — a versioned binary columnar trace format storing
  per-trace symbol-mask arrays pre-encoded against an
  :class:`~repro.logic.codec.AlphabetCodec` (the exact int layout the
  batch kernels step over), plus trace lengths, the codec
  fingerprint, and sampling metadata.  Loading is NumPy-optional:
  ``numpy.frombuffer`` over an ``mmap`` when NumPy is present, an
  ``array('i')`` otherwise.  NumPy is imported on first use, so
  importing this module (and ``repro``) loads none.  Every mask must
  lie in ``[0, 2^|symbols|)``: a set built or loaded with any other
  is a :class:`~repro.errors.TraceError`.

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
magic or version mismatches, the size disagrees with the header, the
payload crc32 does not verify, or a mask lies outside the alphabet.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.cache import CorpusCache
from repro.errors import TraceError
from repro.logic.codec import AlphabetCodec
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


_UNRESOLVED = object()


def _numpy():
    """NumPy, imported on first use — or ``None`` when it is missing or
    ``REPRO_NO_NUMPY`` is set (the test hook forcing the fallback).

    The module attribute ``_np`` holds the answer once known (tests
    patch it); reading ``columnar._np`` from outside resolves it too.
    """
    module = globals().get("_np", _UNRESOLVED)
    if module is _UNRESOLVED:
        module = None
        if not os.environ.get("REPRO_NO_NUMPY"):
            try:
                import numpy as module
            except ImportError:  # pragma: no cover
                module = None
        globals()["_np"] = module
    return module


def __getattr__(name: str):
    if name == "_np":
        return _numpy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


RTRC_MAGIC = b"RTRC"
RTRC_VERSION = 1

#: Payload alignment: mask arrays start on this boundary so an mmap'd
#: int32 view is aligned whatever the JSON header length.
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


def _masks_to_le_bytes(masks) -> bytes:
    """Little-endian int32 bytes of one mask sequence."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(masks, np.ndarray):
        return masks.astype("<i4", copy=False).tobytes()
    if isinstance(masks, array) and masks.typecode == "i" and \
            masks.itemsize == 4:
        if sys.byteorder == "little":
            return masks.tobytes()
        swapped = array("i", masks)
        swapped.byteswap()
        return swapped.tobytes()
    return struct.pack(f"<{len(masks)}i", *masks)


class ColumnarTraceSet:
    """An ordered set of pre-encoded mask streams over one codec.

    ``masks(i)`` / ``mask_arrays()`` return views into one flat buffer
    (a NumPy int32 array when NumPy is present, ``array('i')``
    otherwise) in exactly the layout
    :func:`~repro.runtime.vector.run_many_vector_encoded` consumes.
    Treat them as read-only — loaded sets may be memory-mapped.
    """

    __slots__ = ("symbols", "lengths", "meta", "_flat", "_offsets",
                 "_mmap")

    def __init__(self, symbols: Sequence[str], lengths: Sequence[int],
                 flat, meta: Optional[dict] = None, _mmap=None):
        self.symbols: Tuple[str, ...] = tuple(symbols)
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
        if len(flat):
            # One min/max over the flat buffer (vectorised under NumPy)
            # keeps every kernel's table lookups in range.
            low, high = ((flat.min(), flat.max()) if hasattr(flat, "min")
                         else (min(flat), max(flat)))
            size = 1 << len(self.symbols)
            if low < 0 or high >= size:
                raise TraceError(
                    f"columnar masks span {int(low)}..{int(high)}; an "
                    f"alphabet of {len(self.symbols)} symbols allows "
                    f"0..{size - 1}"
                )
        self._flat = flat
        self._mmap = _mmap

    # -- construction ----------------------------------------------------
    @classmethod
    def from_mask_arrays(cls, mask_arrays: Sequence[Sequence[int]],
                         symbols: Sequence[str],
                         meta: Optional[dict] = None) -> "ColumnarTraceSet":
        lengths = [len(masks) for masks in mask_arrays]
        np = _numpy()
        if np is not None:
            flat = np.empty(sum(lengths), dtype=np.int32)
            cursor = 0
            for masks in mask_arrays:
                flat[cursor:cursor + len(masks)] = np.asarray(
                    masks, dtype=np.int32
                )
                cursor += len(masks)
        else:
            flat = array("i")
            for masks in mask_arrays:
                flat.extend(masks)
        return cls(symbols, lengths, flat, meta=meta)

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
        return AlphabetCodec(self.symbols)

    def masks(self, index: int):
        """Trace ``index``'s mask stream (a zero-copy view; read-only)."""
        start, end = self._offsets[index], self._offsets[index + 1]
        return self._flat[start:end]

    def mask_arrays(self) -> list:
        return [self.masks(index) for index in range(self.n_traces)]

    def trace(self, index: int) -> Trace:
        """Decode one stream back into a :class:`Trace` (tests, tools)."""
        codec = self.codec()
        return Trace([codec.decode(int(mask)) for mask in self.masks(index)],
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
        payload = _masks_to_le_bytes(self._flat)
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
    def from_bytes(cls, data, verify: bool = True,
                   _mmap=None) -> "ColumnarTraceSet":
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
        except (ValueError, KeyError, TypeError):
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
        np = _numpy()
        if np is not None:
            flat = np.frombuffer(payload, dtype="<i4")
        else:
            flat = array("i")
            flat.frombytes(payload)
            if sys.byteorder == "big":  # pragma: no cover - LE hosts
                flat.byteswap()
        return cls(symbols, lengths, flat, meta=meta, _mmap=_mmap)

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"],
             verify: bool = True) -> "ColumnarTraceSet":
        """Read a ``.rtrc`` file; memory-mapped under NumPy.

        Magic, version, header shape, payload size and (unless
        ``verify=False``) the payload crc32 are all checked before any
        mask is served; every failure is a :class:`TraceError`.
        """
        with open(os.fspath(path), "rb") as stream:
            if _numpy() is not None:
                try:
                    mapped = mmap.mmap(stream.fileno(), 0,
                                       access=mmap.ACCESS_READ)
                except (ValueError, OSError):
                    mapped = None  # empty or unmappable file
                if mapped is not None:
                    return cls.from_bytes(mapped, verify=verify,
                                          _mmap=mapped)
            return cls.from_bytes(stream.read(), verify=verify)


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
    in this process.  ``jobs`` has no effect; it is accepted for
    existing callers.
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
    (``jobs`` has no effect)."""
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


def check_masks(monitor, masks, engine: str = "auto",
                max_recorded: int = 10_000):
    """Check one dump's mask stream in the planned batch kernel.

    The last step of every table-engine ``check --vcd``, cached or
    not: the planner sees one lane of ``len(masks)`` ticks (the native
    stepper when a C compiler is present, else the compiled loop), and
    the result comes back as a
    :class:`~repro.trace.streaming.StreamReport` holding the first
    ``max_recorded`` detections.
    """
    from repro.runtime.engines import Workload, plan_execution
    from repro.trace.streaming import StreamReport

    plan = plan_execution(monitor, Workload(1, len(masks)), engine,
                          capability="batch", error_cls=TraceError)
    detections = plan.encoded_runner()(monitor, [masks])[0].detections
    return StreamReport(
        monitor.name,
        ticks=len(masks),
        detections=list(detections[:max_recorded]),
        n_detections=len(detections),
        violations=[],
        n_violations=0,
        n_passes=0,
        n_pending=0,
        stopped_early=False,
    )


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
    go through :func:`check_masks`, the step the uncached path ends
    with too.
    """
    from repro.runtime.compiled import as_compiled
    from repro.runtime.engines import AUTO, require_backend

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
