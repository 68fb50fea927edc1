"""Bitmask encoding of valuations over a fixed symbol ordering.

The synthesis algorithm enumerates "each valuation e in 2^Sigma"; a
valuation over a restricted alphabet of ``k`` symbols is therefore one
of ``2^k`` rows of a dense table.  :class:`AlphabetCodec` fixes the
ordering — symbol ``i`` (in sorted order) owns bit ``1 << i`` — and
converts between :class:`~repro.logic.valuation.Valuation` objects and
their integer row indices.  The compiled monitor runtime
(:mod:`repro.runtime.compiled`) indexes its transition tables with
these masks, replacing per-tick guard-tree interpretation with a list
lookup.

Encoding is total on the *trace* side: symbols outside the codec's
alphabet are simply dropped (they read false under the restricted
alphabet, exactly as :meth:`Valuation.restricted` would make them).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ExprError
from repro.logic.valuation import Valuation
from repro.slots import SlotPickle

__all__ = ["AlphabetCodec", "clear_trace_cache", "trace_cache_info"]

#: Valuation enumeration beyond this many symbols is refused — the same
#: tractability cap the synthesis layer applies to ``2^|Sigma|``.
MAX_CODEC_SYMBOLS = 20

#: Shared mask-array cache for :meth:`AlphabetCodec.encode_trace`.
#: Keyed by ``(symbol ordering, id(trace))`` and holding a strong
#: reference to the trace (so the id cannot be recycled while the entry
#: lives); equal codecs — every member of a bank synthesized over the
#: same alphabet builds its own but ``==`` instance — share entries, so
#: a batch run over ``N`` monitors encodes each trace *once*, not ``N``
#: times.  Bounded LRU: dicts iterate in insertion order, so the first
#: key is always the least recently used.
_TRACE_CACHE: Dict[tuple, Tuple[object, array]] = {}
_TRACE_CACHE_LIMIT = 256
_trace_cache_hits = 0
_trace_cache_misses = 0


def trace_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the shared ``encode_trace`` cache."""
    return {
        "hits": _trace_cache_hits,
        "misses": _trace_cache_misses,
        "entries": len(_TRACE_CACHE),
    }


def clear_trace_cache() -> None:
    """Drop every cached mask array (tests; memory pressure)."""
    global _trace_cache_hits, _trace_cache_misses
    _TRACE_CACHE.clear()
    _trace_cache_hits = 0
    _trace_cache_misses = 0


class AlphabetCodec(SlotPickle):
    """A fixed, sorted symbol ordering with bitmask conversion.

    ``symbols[i]`` owns bit ``1 << i`` (LSB = first symbol in sorted
    order).  ``size`` is ``2 ** len(symbols)`` — the number of distinct
    valuations, i.e. the row count of a dense transition table.
    """

    __slots__ = ("symbols", "bit_of", "size")

    def __init__(self, symbols: Iterable[str]):
        ordered: Tuple[str, ...] = tuple(sorted(set(symbols)))
        if len(ordered) > MAX_CODEC_SYMBOLS:
            raise ExprError(
                f"alphabet of {len(ordered)} symbols exceeds the "
                f"2^{MAX_CODEC_SYMBOLS} dense-table cap"
            )
        object.__setattr__(self, "symbols", ordered)
        object.__setattr__(
            self, "bit_of", {s: 1 << i for i, s in enumerate(ordered)}
        )
        object.__setattr__(self, "size", 1 << len(ordered))

    def __setattr__(self, name, value):
        raise AttributeError("AlphabetCodec is immutable")

    # -- conversions -----------------------------------------------------
    def encode(self, valuation) -> int:
        """Bitmask of ``valuation`` (a Valuation or iterable of symbols).

        Symbols outside the codec's alphabet are ignored — encoding a
        full-trace valuation against a restricted alphabet projects it,
        mirroring :meth:`Valuation.restricted`.
        """
        true = valuation.true if isinstance(valuation, Valuation) else valuation
        bit_of = self.bit_of
        mask = 0
        for symbol in true:
            bit = bit_of.get(symbol)
            if bit:
                mask |= bit
        return mask

    def _encode_masks(self, trace: Sequence[Valuation]) -> List[int]:
        """The raw per-tick mask list of ``trace`` (no caching)."""
        bit_of_get = self.bit_of.get
        encoded: List[int] = []
        append = encoded.append
        for valuation in trace:
            mask = 0
            for symbol in valuation.true:
                bit = bit_of_get(symbol)
                if bit:
                    mask |= bit
            append(mask)
        return encoded

    def _cache_entry(self, trace: Sequence[Valuation]) -> list:
        global _trace_cache_hits, _trace_cache_misses
        # Identity keying is only sound for immutable traces: a plain
        # list mutated in place keeps its id, and serving the stale
        # masks would silently check the old contents.  Other sequence
        # types encode fresh (local import: codec sits below the
        # semantics layer).
        from repro.semantics.run import Trace

        if not isinstance(trace, Trace):
            return [trace, array("i", self._encode_masks(trace)), None]
        key = (self.symbols, id(trace))
        entry = _TRACE_CACHE.get(key)
        if entry is not None and entry[0] is trace:
            # Refresh recency (insertion order is the eviction order).
            del _TRACE_CACHE[key]
            _TRACE_CACHE[key] = entry
            _trace_cache_hits += 1
            return entry
        _trace_cache_misses += 1
        # The third slot lazily memoizes the plain-list form the
        # scalar batch loop indexes fastest (see encode_trace_list).
        entry = [trace, array("i", self._encode_masks(trace)), None]
        while len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        _TRACE_CACHE[key] = entry
        return entry

    def encode_trace(self, trace: Sequence[Valuation]) -> array:
        """The whole trace's masks as one reusable ``array('i')``.

        Encoding a trace costs a Python loop per tick; batch runs feed
        the *same* traces to every monitor of a bank, so the arrays are memoized in a shared bounded cache keyed by the
        codec's symbol ordering and the trace's identity.  The returned
        array is shared — treat it as read-only.
        """
        return self._cache_entry(trace)[1]

    def encode_trace_list(self, trace: Sequence[Valuation]) -> List[int]:
        """The cached mask stream as a plain list (shared, read-only).

        Plain lists index fastest in the scalar tick loop; the list
        form is materialised from the cached array once and memoized
        alongside it, so warm batch runs pay no per-call conversion.
        """
        entry = self._cache_entry(trace)
        if entry[2] is None:
            entry[2] = list(entry[1])
        return entry[2]

    def encode_many(self, traces: Iterable[Sequence[Valuation]],
                    as_list: bool = False) -> list:
        """One mask array (or list, ``as_list=True``) per trace.

        Batches at least as large as the cache bypass it entirely: a
        sequential scan over more traces than the cache holds is LRU's
        worst case — every entry would be evicted before its reuse —
        so caching there costs bookkeeping and pins memory for a 0%
        hit rate.  Callers running several monitors over such a batch
        share mask arrays explicitly (see ``MonitorBank.run_batch``).
        """
        if not isinstance(traces, (list, tuple)):
            traces = list(traces)
        if len(traces) >= _TRACE_CACHE_LIMIT:
            encoded = [self._encode_masks(trace) for trace in traces]
            if as_list:
                return encoded
            return [array("i", masks) for masks in encoded]
        if as_list:
            return [self.encode_trace_list(trace) for trace in traces]
        return [self.encode_trace(trace) for trace in traces]

    def decode(self, mask: int) -> Valuation:
        """The valuation (over this codec's alphabet) with bits of ``mask``."""
        if not (0 <= mask < self.size):
            raise ExprError(
                f"mask {mask} outside 0..{self.size - 1} for alphabet "
                f"{list(self.symbols)}"
            )
        true = [s for i, s in enumerate(self.symbols) if mask >> i & 1]
        return Valuation(true, self.symbols)

    def index_of(self, symbol: str) -> int:
        """Bit position of ``symbol`` in the ordering."""
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ExprError(f"symbol {symbol!r} not in codec alphabet")

    def all_masks(self) -> range:
        """Every valuation index, ``0 .. size-1``."""
        return range(self.size)

    def truth_table(self, expr) -> int:
        """Bitmap of ``expr`` over all masks: bit ``m`` set iff true at ``m``.

        ``expr`` must not contain scoreboard checks (its truth must be a
        function of the input valuation alone).
        """
        fn = expr.compile(self)
        bitmap = 0
        for mask in range(self.size):
            if fn(mask, None):
                bitmap |= 1 << mask
        return bitmap

    # -- dunder ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.bit_of

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __eq__(self, other):
        return isinstance(other, AlphabetCodec) and self.symbols == other.symbols

    def __hash__(self):
        return hash(("AlphabetCodec", self.symbols))

    def __repr__(self):
        return f"AlphabetCodec({list(self.symbols)})"
