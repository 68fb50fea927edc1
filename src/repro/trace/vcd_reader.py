"""The VCD front-end: waveform dumps to per-tick symbol masks.

The counterpart of :class:`~repro.sim.vcd.VcdWriter` — but built for
dumps the repo did *not* write: standard four-value VCD as produced by
simulators and waveform tools.  There is one front-end, and every
consumer reads the dump through it:

* the **header** (scopes, ``$var`` declarations, timescale) is
  tokenised once, when a :class:`VcdReader` opens the dump;
* the **change stream** after ``$enddefinitions`` is read in blocks of
  about ``chunk_size`` characters, each cut just before a ``\\n#``
  timestamp line, so the dump text is never held whole;
* each block is reduced to per-instant *delta records* (the bound
  bits set and cleared in the instant, plus clock-edge flags);
* one sequential **replay** applies the sampling discipline
  (:class:`_Sampler`, the state carried from block to block) to the
  records and emits one mask int per tick.

When a C compiler is available, a fixed C translation unit
(:mod:`repro.trace.vcd_native`) does both steps in one pass over each
block, on the same sampling state.  The Python parser and replay
(:mod:`repro.trace.vcd_python`) stay as the reference and take any
block the C grammar leaves out (and every block without a compiler);
they are imported at the first block they take.  So the masks and the
:class:`~repro.errors.TraceError` text never depend on which side
parsed a block.

:meth:`VcdReader.masks` collects those masks into one ``array('i')``
(4 bytes a tick) for the batch kernels — the path every table-engine
``repro check --vcd`` takes.  :meth:`VcdReader.valuations` decodes the
same mask chunks into :class:`~repro.logic.valuation.Valuation`
objects for the interpreted engine and older callers, and
:meth:`VcdReader.changes` is a plain per-record view.  Every dump is
parsed once, in one process: ``repro ingest`` and the corpus cache
(:func:`~repro.trace.columnar.masks_from_vcd_text`) read it through
:meth:`VcdReader.masks` too.

Dumps are decoded as UTF-8 with undecodable bytes replaced, so stray
Latin-1 in a ``$comment`` cannot stop a check.

Block seams
-----------
A seam never cuts a token, but it can cut a multi-token construct: a
directive body that holds a ``\\n#`` line, a ``$dumpoff`` section, or
a vector value and its identifier.  The block parser reports such a
block instead of raising; the block is then joined with more text and
parsed again.  So any ``chunk_size`` gives the masks — or the
:class:`~repro.errors.TraceError` — of a one-block parse.

Sampling disciplines
--------------------
* **event sampling** (default) — one tick per timestamp present in
  the dump;
* **clock sampling** (``clock="clk"``) — one tick per rising edge of a
  designated clock signal, the usual discipline for synchronous
  protocol traces;
* **periodic sampling** (``period=n``) — one tick every ``n`` time
  units (gaps hold their last value), which reconstructs exactly the
  tick grid :class:`~repro.sim.vcd.VcdWriter` sampled on.

``offset``/``until`` (time units, inclusive) window every discipline,
and reading stops at the first timestamp past ``until``: nothing
after it is parsed, so it can raise no error.  Ticks sample
values *after* the changes at their instant — the synchronous
convention that a change dumped at time ``t`` is what the monitor
reads at tick ``t``.

A :class:`SignalBinding` maps VCD signal references to alphabet
symbols; unmapped signals are ignored, multi-bit signals read true
when non-zero, and ``x``/``z`` read false.

x/z sampling semantics
----------------------
Four-value VCD has no direct image in the two-valued synchronous
model, so unknown (``x``) and high-impedance (``z``) parse to
``None`` in :meth:`VcdReader.changes` — *not* to 0.  The distinction
matters in three places:

* a symbol whose driver is ``x``/``z`` reads **false** at sampling
  time, the conservative choice for event symbols ("no occurrence
  observed");
* a clock driven to ``x``/``z`` reads **low**: the unknown itself can
  never be a sampling edge (no tick fires on ``1 -> x``), while the
  next real ``1`` — whether from ``0`` or from ``x`` — is the rising
  edge that ticks the monitor;
* a dump whose only content so far is all-``x`` (``$dumpvars`` of an
  uninitialised design, or a ``$dumpoff`` blackout) has produced **no
  value** yet: event/periodic sampling starts at the first real value,
  so uninitialised preambles do not emit all-false phantom ticks.
"""

from __future__ import annotations

import os
import re
from array import array
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import TraceError
from repro.logic.valuation import Valuation

if TYPE_CHECKING:
    from repro.semantics.run import Trace

__all__ = ["SignalBinding", "VcdReader", "VcdSignal"]

_TOKEN = re.compile(r"\S+")

#: Distinct masks :meth:`VcdReader.valuations` keeps decoded at once.
_DECODE_CACHE = 4096


class VcdSignal:
    """One declared signal: identifier code, hierarchical name, width."""

    __slots__ = ("code", "name", "scope", "width", "kind")

    def __init__(self, code: str, name: str, scope: str, width: int,
                 kind: str = "wire"):
        self.code = code
        self.name = name
        self.scope = scope
        self.width = int(width)
        self.kind = kind

    @property
    def reference(self) -> str:
        """Fully scoped ``scope.name`` reference."""
        return f"{self.scope}.{self.name}" if self.scope else self.name

    def __repr__(self):
        return (
            f"VcdSignal({self.reference!r}, code={self.code!r}, "
            f"width={self.width})"
        )


class SignalBinding:
    """Maps VCD signal references to monitor alphabet symbols.

    ``mapping`` keys may be plain signal names (``"req"``) or scoped
    references (``"top.req"``); scoped keys win on collision.  The
    mapping *overlays* the identity binding: unmapped signals still
    bind to their own (unscoped) name, so renaming one net does not
    silently drop the others.  ``only`` restricts that identity
    fallback to a symbol subset — pass ``only=()`` to bind strictly
    the mapped signals and nothing else.
    """

    def __init__(self, mapping: Optional[Mapping[str, str]] = None,
                 only: Optional[Iterable[str]] = None):
        self._mapping = dict(mapping) if mapping else {}
        self._only = frozenset(only) if only is not None else None

    @classmethod
    def parse(cls, specs: Iterable[str]) -> "SignalBinding":
        """Build a binding from ``SIGNAL=SYMBOL`` strings (CLI form)."""
        mapping: Dict[str, str] = {}
        for spec in specs:
            signal, separator, symbol = spec.partition("=")
            if not separator or not signal or not symbol:
                raise TraceError(
                    f"bad binding {spec!r}: expected SIGNAL=SYMBOL"
                )
            mapping[signal] = symbol
        return cls(mapping)

    @property
    def explicit(self) -> bool:
        """Was an explicit signal->symbol mapping supplied?"""
        return bool(self._mapping)

    def maps(self, signal: VcdSignal) -> bool:
        """Is ``signal`` explicitly named in the mapping?"""
        return (signal.reference in self._mapping
                or signal.name in self._mapping)

    def fingerprint(self) -> str:
        """Canonical text form for cache keys: equal bindings (same
        mapping, same ``only`` restriction) fingerprint equally."""
        mapping = ",".join(
            f"{signal}={symbol}"
            for signal, symbol in sorted(self._mapping.items())
        )
        only = ("*" if self._only is None
                else ",".join(sorted(self._only)))
        return f"map[{mapping}]only[{only}]"

    def symbol_for(self, signal: VcdSignal) -> Optional[str]:
        """The alphabet symbol ``signal`` feeds, or ``None`` to ignore."""
        symbol = self._mapping.get(signal.reference)
        if symbol is None:
            symbol = self._mapping.get(signal.name)
        if symbol is not None:
            return symbol
        if self._only is not None and signal.name not in self._only:
            return None
        return signal.name

    def __repr__(self):
        if self._mapping:
            return f"SignalBinding({self._mapping!r})"
        return f"SignalBinding(identity, only={self._only})"


class _TextSource:
    """``read(size)`` over a string already in memory, without a copy
    of the whole (``io.StringIO`` would hold it again, 4 bytes a
    character)."""

    __slots__ = ("_text", "_pos")

    def __init__(self, text: str):
        self._text = text
        self._pos = 0

    def read(self, size: int = -1) -> str:
        start = self._pos
        self._pos = len(self._text) if size < 0 else start + size
        return self._text[start:self._pos]


class _TokenStream:
    """Whitespace tokenizer over a text stream, for the header.

    Reads ``chunk_size`` characters at a time and keeps the unconsumed
    text as written, so :meth:`take_rest` can hand the change stream
    that follows ``$enddefinitions`` to the block reader.
    """

    __slots__ = ("_read", "_chunk_size", "_text", "_pos", "_eof")

    def __init__(self, read: Callable[[int], str], chunk_size: int):
        self._read = read
        self._chunk_size = chunk_size
        self._text = ""
        self._pos = 0
        self._eof = False

    def next_token(self) -> Optional[str]:
        while True:
            match = _TOKEN.search(self._text, self._pos)
            # A token touching the end of the text may continue in the
            # next read.
            if match is not None and (match.end() < len(self._text)
                                      or self._eof):
                self._pos = match.end()
                return match.group()
            if self._eof:
                return None
            chunk = self._read(self._chunk_size)
            if chunk:
                self._text = self._text[self._pos:] + chunk
                self._pos = 0
            else:
                self._eof = True

    def take_rest(self) -> str:
        """The text read but not yet consumed (this stream forgets it)."""
        rest = self._text[self._pos:]
        self._text = ""
        self._pos = 0
        return rest

    def __iter__(self) -> "_TokenStream":
        return self

    def __next__(self) -> str:
        token = self.next_token()
        if token is None:
            raise StopIteration
        return token


class VcdReader:
    """A VCD dump: header parsed on open, change stream read on demand.

    ``source`` is a filesystem path or an open text stream; text
    passed directly is supported via :meth:`from_text`.  The header is
    parsed eagerly (so :attr:`signals` is available immediately); the
    change stream is read once, in blocks of about ``chunk_size``
    characters, by whichever of :meth:`masks`, :meth:`valuations` or
    :meth:`changes` is called.
    """

    def __init__(self, source: Union[str, "os.PathLike[str]", object],
                 binding: Optional[SignalBinding] = None,
                 chunk_size: int = 1 << 16):
        if chunk_size <= 0:
            raise TraceError("chunk_size must be positive")
        self._owns_stream = False
        if hasattr(source, "read"):
            self._stream = source
        else:
            self._stream = open(os.fspath(source), "r", encoding="utf-8",
                                errors="replace", newline="")
            self._owns_stream = True
        self._chunk_size = chunk_size
        self.binding = binding if binding is not None else SignalBinding()
        self.timescale: Optional[str] = None
        self.signals: List[VcdSignal] = []
        self._tokens = _TokenStream(self._stream.read, chunk_size)
        try:
            self._parse_header()
        except Exception:
            # The context manager is never entered when __init__
            # raises, so an owned handle must be released here.
            self.close()
            raise
        self._consumed = False

    @classmethod
    def from_text(cls, text: str, binding: Optional[SignalBinding] = None,
                  chunk_size: int = 1 << 16) -> "VcdReader":
        """Read a VCD document already held as a string."""
        return cls(_TextSource(text), binding=binding, chunk_size=chunk_size)

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "VcdReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- header ----------------------------------------------------------
    def _directive_body(self, name: str) -> List[str]:
        body: List[str] = []
        for token in self._tokens:
            if token == "$end":
                return body
            body.append(token)
        raise TraceError(f"unterminated {name} directive (missing $end)")

    def _parse_header(self) -> None:
        scopes: List[str] = []
        for token in self._tokens:
            if token == "$enddefinitions":
                self._directive_body("$enddefinitions")
                return
            if token == "$timescale":
                self.timescale = " ".join(self._directive_body("$timescale"))
            elif token == "$scope":
                body = self._directive_body("$scope")
                if len(body) < 2:
                    raise TraceError(f"malformed $scope: {body}")
                scopes.append(body[1])
            elif token == "$upscope":
                self._directive_body("$upscope")
                if scopes:
                    scopes.pop()
            elif token == "$var":
                body = self._directive_body("$var")
                if len(body) < 4:
                    raise TraceError(f"malformed $var: {body}")
                kind, width, code, name = body[0], body[1], body[2], body[3]
                try:
                    parsed_width = int(width)
                except ValueError:
                    raise TraceError(f"bad $var width {width!r}")
                self.signals.append(VcdSignal(
                    code, name, ".".join(scopes), parsed_width, kind
                ))
            elif token.startswith("$"):
                # $date/$version/$comment and unknown directives: skip
                # the body.
                self._directive_body(token)
            else:
                raise TraceError(
                    f"unexpected token {token!r} before $enddefinitions"
                )
        raise TraceError("VCD header ended without $enddefinitions")

    # -- binding ---------------------------------------------------------
    def _bound_symbols(self) -> Dict[str, Tuple[str, ...]]:
        """``identifier code -> symbols`` for every bound signal.

        One code may carry several symbols: VCD aliases identical nets
        across scopes by declaring multiple ``$var`` entries with a
        shared identifier, and a change record drives all of them.
        """
        bound: Dict[str, Tuple[str, ...]] = {}
        for signal in self.signals:
            symbol = self.binding.symbol_for(signal)
            if symbol is not None:
                existing = bound.get(signal.code, ())
                if symbol not in existing:
                    bound[signal.code] = existing + (symbol,)
        return bound

    def alphabet(self, clock: Optional[str] = None) -> frozenset:
        """The symbols this reader's binding exposes.

        Pass the same ``clock`` as the sampling call to get the
        alphabet the emitted valuations will carry (the sampling clock
        is infrastructure, excluded unless explicitly bound).
        """
        bound, _ = self._sampling_bound(clock)
        return frozenset(s for symbols in bound.values() for s in symbols)

    def _sampling_bound(self, clock: Optional[str]):
        """``(code -> symbol, clock codes)`` for one sampling setup."""
        bound = self._bound_symbols()
        clock_codes = frozenset(
            s.code for s in self.signals
            if clock is not None and (s.name == clock or s.reference == clock)
        )
        if clock is not None and not clock_codes:
            known = sorted(s.reference for s in self.signals)
            raise TraceError(
                f"clock signal {clock!r} not declared in dump "
                f"(signals: {known})"
            )
        if len(clock_codes) > 1:
            # Distinct nets (different identifier codes) sharing the
            # unscoped name: unioning their edges would corrupt the
            # tick grid, so demand a scoped reference.  A single code
            # declared in several scopes is one net — fine.
            matches = sorted(
                s.reference for s in self.signals
                if s.name == clock or s.reference == clock
            )
            raise TraceError(
                f"clock name {clock!r} is ambiguous in this dump "
                f"({matches}); use a scoped reference"
            )
        infrastructure = frozenset(
            s.name for s in self.signals
            if s.code in clock_codes and not self.binding.maps(s)
        )
        if infrastructure:
            # The sampling clock is infrastructure, not part of the
            # observed alphabet — unless a mapping names it on purpose.
            # Only the clock's own symbols are dropped: an identifier
            # code aliasing the clock with a bound data net keeps the
            # data symbol.
            trimmed: Dict[str, Tuple[str, ...]] = {}
            for code, symbols in bound.items():
                if code in clock_codes:
                    symbols = tuple(
                        s for s in symbols if s not in infrastructure
                    )
                if symbols:
                    trimmed[code] = symbols
            bound = trimmed
        return bound, clock_codes

    def _delta_plan(self, bit_of: Mapping[str, int],
                    clock: Optional[str]) -> tuple:
        """What the block parsers and the replay need for one sampling
        setup: ``(code_bits, clock_codes, direct, symbol_bits_of)``,
        with symbol bits taken from ``bit_of``.

        In the common 1:1 case (every symbol has one driving code)
        codes are tracked directly in symbol-bit space and the replay's
        mask *is* the code snapshot.  When several codes drive one
        symbol (aliased nets bound to the same name), each such code
        gets a private bit and the replay folds code bits to symbol
        bits: a symbol reads true while any driver is high.  Codes that
        drive no symbol of ``bit_of`` get no bit at all.
        """
        bound, clock_codes = self._sampling_bound(clock)
        driving: Dict[str, int] = {}
        drivers: Dict[str, int] = {}
        for code, symbols in bound.items():
            bits = 0
            for symbol in symbols:
                bit = bit_of.get(symbol, 0)
                if bit:
                    bits |= bit
                    drivers[symbol] = drivers.get(symbol, 0) + 1
            if bits:
                driving[code] = bits
        if all(count == 1 for count in drivers.values()):
            code_bits, direct, symbol_bits_of = driving, True, None
        else:
            codes = sorted(driving)
            code_bits = {code: 1 << position
                         for position, code in enumerate(codes)}
            direct, symbol_bits_of = False, [driving[c] for c in codes]
        return code_bits, clock_codes, direct, symbol_bits_of

    # -- the change stream -----------------------------------------------
    def _claim(self) -> None:
        """Mark the change stream consumed (a reader reads it once)."""
        if self._consumed:
            raise TraceError(
                "VCD value changes already consumed; open a new VcdReader "
                "to re-read the dump"
            )
        self._consumed = True

    def _parsed_blocks(self, parse) -> Iterator:
        """``parse(block, final)`` over the change stream, in order.

        A block holds about ``chunk_size`` characters and ends just
        before a ``\\n#`` line.  ``parse`` returns ``None`` when a
        non-final block ends inside a multi-token construct; the block
        is then parsed again with at least as much text appended, so
        long constructs cost linear time.
        """
        self._claim()
        read = self._stream.read
        text = self._tokens.take_rest()
        size = self._chunk_size
        scan = 0  # where the search for the next cut resumes
        while True:
            chunk = read(size)
            text += chunk
            eof = not chunk
            cut = len(text) if eof else text.rfind("\n#", scan) + 1
            if cut <= 0 and not eof:
                scan = max(0, len(text) - 1)
                continue
            parsed = parse(text[:cut], eof)
            if parsed is None:
                scan = max(0, len(text) - 1)
                size = max(self._chunk_size, len(text))
                continue
            yield parsed
            if eof:
                return
            text = text[cut:]
            scan = 0
            size = self._chunk_size

    def _mask_chunks(self, bit_of: Mapping[str, int], clock: Optional[str],
                     period: Optional[int], offset: int,
                     until: Optional[int]) -> Iterator[List[int]]:
        """One sequence of tick masks per parsed block (bits from
        ``bit_of``): the C parser's where it takes the block, the
        Python parser's (:mod:`repro.trace.vcd_python`, imported at
        the first block it takes) where it does not."""
        from repro.trace.vcd_native import FALLBACK, block_parser

        _check_sampling(clock, period)
        code_bits, clock_codes, direct, symbol_bits_of = \
            self._delta_plan(bit_of, clock)
        sampler = _Sampler(bool(clock_codes), period, offset, until,
                           direct, symbol_bits_of)
        codes = list(dict.fromkeys(s.code for s in self.signals))
        native = block_parser(codes, code_bits, clock_codes, direct,
                              symbol_bits_of, sampler)
        python = actions = None

        def parse(text, final):
            nonlocal python, actions
            if native is not None:
                masks = native(text, final)
                if masks is not FALLBACK:
                    return masks
            if python is None:
                from repro.trace import vcd_python as python

                actions = python.scalar_actions(codes, code_bits, clock_codes)
            records = python.parse_chunk(
                text, actions, code_bits, clock_codes, final, until,
                sampler.block_time if sampler.pending else None)
            return None if records is None else python.replay(sampler, records)

        return sampler.run(self._parsed_blocks(parse))

    def masks(self, codec, clock: Optional[str] = None,
              period: Optional[int] = None, offset: int = 0,
              until: Optional[int] = None) -> array:
        """Every sampled tick as a mask over ``codec``, in one ``array('i')``.

        ``codec`` is an :class:`~repro.logic.codec.AlphabetCodec`;
        symbols it lacks are dropped.  The text streams through in
        blocks, but the masks are held whole (4 bytes a tick) for the
        batch kernels.  Sampling parameters as in :meth:`valuations`.
        """
        out = array("i")
        for chunk in self._mask_chunks(codec.bit_of, clock, period,
                                       offset, until):
            out.extend(chunk)
        return out

    def valuations(
        self,
        clock: Optional[str] = None,
        period: Optional[int] = None,
        offset: int = 0,
        until: Optional[int] = None,
    ) -> Iterator[Valuation]:
        """Stream one :class:`Valuation` per tick.

        Exactly one discipline applies: ``clock`` names a signal whose
        rising edges define the ticks (the signal itself is excluded
        from the emitted symbols unless explicitly bound); ``period``
        samples every ``period`` time units starting at ``offset`` up
        to ``until`` (default: the dump's last timestamp); with
        neither, every timestamp in the dump is a tick.  ``offset`` /
        ``until`` window every discipline (see the module docstring).

        The valuations decode the mask chunks :meth:`masks` collects,
        one block at a time, over the binding's whole alphabet.
        """
        _check_sampling(clock, period)
        alphabet = self.alphabet(clock)
        symbols = sorted(alphabet)
        bit_of = {symbol: 1 << index for index, symbol in enumerate(symbols)}
        decoded: Dict[int, Valuation] = {}
        for chunk in self._mask_chunks(bit_of, clock, period, offset, until):
            for mask in chunk:
                valuation = decoded.get(mask)
                if valuation is None:
                    if len(decoded) >= _DECODE_CACHE:
                        decoded.clear()
                    valuation = decoded[mask] = Valuation(
                        [s for i, s in enumerate(symbols) if mask >> i & 1],
                        alphabet,
                    )
                yield valuation

    def changes(self) -> Iterator[Tuple[int, str, Optional[int]]]:
        """Yield ``(time, identifier_code, value)`` change records.

        ``value`` is an int (vectors parse as binary), ``0``/``1`` for
        scalars, or ``None`` for ``x``/``z``; each timestamp also
        yields a ``(time, "", None)`` marker.  Records inside
        ``$dumpvars``-style sections are yielded like ordinary changes
        (their surrounding markers are skipped).  A plain view of the
        change stream: no checking path reads it.

        A reader streams its dump exactly once — a second consumption
        would silently yield nothing (the underlying stream is spent),
        so it raises instead; construct a fresh ``VcdReader`` to
        re-read.
        """
        from repro.trace.vcd_python import Truncated, decode_change, timestamp

        time = 0

        def parse(text, final):
            nonlocal time
            records = []
            at = time
            tokens = iter(text.split())
            try:
                for token in tokens:
                    if token[0] == "#":
                        at = timestamp(token)
                        records.append((at, "", None))
                        continue
                    change = decode_change(token, tokens)
                    if change is not None:
                        records.append((at,) + change)
            except Truncated as cut:
                if final:
                    raise TraceError(str(cut)) from None
                return None
            time = at
            return records

        for records in self._parsed_blocks(parse):
            yield from records

    def trace(self, clock: Optional[str] = None, period: Optional[int] = None,
              offset: int = 0, until: Optional[int] = None) -> Trace:
        """Materialise the sampled valuation stream as a :class:`Trace`.

        Convenience for small dumps and tests; checks take
        :meth:`masks` instead.
        """
        from repro.semantics.run import Trace

        alphabet = self.alphabet(clock=clock)
        valuations = list(
            self.valuations(clock=clock, period=period, offset=offset,
                            until=until)
        )
        return Trace(valuations, alphabet)


# -- the sampling state ------------------------------------------------------
def _check_sampling(clock: Optional[str], period: Optional[int]) -> None:
    if clock is not None and period is not None:
        raise TraceError("choose clock or period sampling, not both")
    if period is not None and period <= 0:
        raise TraceError("sampling period must be positive")


class _Sampler:
    """The replay: the sampling discipline, as state carried from block
    to block.

    The single sequential pass that owns the sampling semantics:
    same-instant merging (an instant split over several blocks, or a
    ``$dumpvars`` section before ``#0``, merges under the same-time
    rule), ``saw_value`` gating, periodic phase skipping and the
    window's early exit (``done``).  The Python replay
    (:func:`repro.trace.vcd_python.replay`) applies one block's delta
    records to these fields, and the C block parser
    (:mod:`repro.trace.vcd_native`) runs the same state machine over
    them, so either side continues where the other left off.
    """

    __slots__ = ("has_clock", "period", "offset", "until", "direct",
                 "symbol_bits_of", "code_vals", "mask", "level", "rose",
                 "saw", "pending", "block_time", "next_sample", "done")

    def __init__(self, has_clock: bool, period: Optional[int], offset: int,
                 until: Optional[int], direct: bool,
                 symbol_bits_of: Optional[List[int]]):
        self.has_clock = has_clock
        self.period = period
        self.offset = offset
        self.until = until
        self.direct = direct
        self.symbol_bits_of = symbol_bits_of
        self.code_vals = 0
        self.mask = 0
        self.level = False
        self.rose = False
        self.saw = False
        self.pending = False
        self.block_time = 0
        self.next_sample = offset
        self.done = False

    def run(self, block_masks: Iterable[List[int]]) -> Iterator[List[int]]:
        """Each block's masks, then the final instant's, as non-empty
        lists; reads no further block once past ``until``."""
        for masks in block_masks:
            if masks:
                yield masks
            if self.done:
                return
        masks = self.finish()
        if masks:
            yield masks

    def finish(self) -> List[int]:
        """The masks closing the final instant."""
        out: List[int] = []
        if self.pending:
            until, block_time = self.until, self.block_time
            in_window = block_time >= self.offset and (
                until is None or block_time <= until
            )
            if self.has_clock:
                if self.rose and in_window:
                    out.append(self.mask)
            elif self.period is None and self.saw and in_window:
                out.append(self.mask)
            if self.period is not None and self.saw:
                stop = block_time if until is None else until
                while self.next_sample <= stop:
                    out.append(self.mask)
                    self.next_sample += self.period
        return out
