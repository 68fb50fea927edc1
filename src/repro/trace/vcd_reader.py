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
* each block is reduced to per-instant *delta records*
  (:func:`_parse_chunk`: the bound bits set and cleared in the
  instant, plus clock-edge flags);
* one sequential **replay** (:class:`_Sampler`) applies the sampling
  discipline to the records and emits one mask int per tick.

When a C compiler is available, a fixed C translation unit
(:mod:`repro.trace.vcd_native`) does both steps in one pass over each
block, on the same sampling state; the Python parser and replay stay
as the reference and take any block the C grammar leaves out (and
every block without a compiler), so the masks and the
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
from repro.semantics.run import Trace

__all__ = ["SignalBinding", "VcdReader", "VcdSignal"]

#: Scalar change tokens.  ``x``/``z`` map to ``None`` — "no known
#: value" — which samples as false, never rises a clock, and does not
#: count as the dump's first real value (see module docstring).
_SCALAR_VALUES = {"0": 0, "1": 1, "x": None, "X": None, "z": None, "Z": None}

#: Dump-section markers that bracket ordinary value-change tokens.
_DUMP_DIRECTIVES = {"$dumpvars", "$dumpall", "$dumpon", "$dumpoff"}

_TOKEN = re.compile(r"\S+")

# Per-instant clock/validity flags carried by delta records.
_F_ROSE = 1          # clock rose within the instant (previous level known low)
_F_ROSE_IF_LOW = 2   # clock went high but the incoming level is block-unknown
_F_LEVEL_LOW = 4     # clock level at end of instant: low
_F_LEVEL_HIGH = 8    # clock level at end of instant: high
_F_SAW = 16          # some change carried a real (non-x/z) value
_F_INITIAL = 32      # the instant's changes came before any timestamp

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
        """What the block parser and the replay need for one sampling
        setup: ``(actions, code_bits, clock_codes, direct,
        symbol_bits_of)``, with symbol bits taken from ``bit_of``.

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
        actions = _scalar_actions((s.code for s in self.signals), code_bits,
                                  clock_codes)
        return actions, code_bits, clock_codes, direct, symbol_bits_of

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
        Python parser's and replay's where it does not."""
        from repro.trace.vcd_native import FALLBACK, block_parser

        _check_sampling(clock, period)
        actions, code_bits, clock_codes, direct, symbol_bits_of = \
            self._delta_plan(bit_of, clock)
        has_clock = bool(clock_codes)
        sampler = _Sampler(has_clock, period, offset, until, direct,
                           symbol_bits_of)
        native = block_parser(
            list(dict.fromkeys(s.code for s in self.signals)), code_bits,
            clock_codes, direct, symbol_bits_of, sampler)

        def parse(text, final):
            if native is not None:
                masks = native(text, final)
                if masks is not FALLBACK:
                    return masks
            records = _parse_chunk(
                text, actions, code_bits, clock_codes, final, until,
                sampler.block_time if sampler.pending else None)
            return None if records is None else sampler.replay(records)

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
        time = 0

        def parse(text, final):
            nonlocal time
            records = []
            at = time
            tokens = iter(text.split())
            try:
                for token in tokens:
                    if token[0] == "#":
                        at = _timestamp(token)
                        records.append((at, "", None))
                        continue
                    change = _change(token, tokens)
                    if change is not None:
                        records.append((at,) + change)
            except _Truncated as cut:
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
        alphabet = self.alphabet(clock=clock)
        valuations = list(
            self.valuations(clock=clock, period=period, offset=offset,
                            until=until)
        )
        return Trace(valuations, alphabet)


# -- the block parser and the replay ----------------------------------------
class _Truncated(Exception):
    """A block ended inside a multi-token construct.

    The message is the :class:`TraceError` a final block raises.
    """


def _check_sampling(clock: Optional[str], period: Optional[int]) -> None:
    if clock is not None and period is not None:
        raise TraceError("choose clock or period sampling, not both")
    if period is not None and period <= 0:
        raise TraceError("sampling period must be positive")


def _timestamp(token: str) -> int:
    try:
        return int(token[1:])
    except ValueError:
        raise TraceError(f"bad timestamp token {token!r}") from None


def _change(token: str, tokens: Iterator[str]):
    """Decode one change-stream token that is not a declared scalar.

    Returns ``(code, value)`` for a value change (``value`` is ``None``
    for ``x``/``z``), or ``None`` for a directive, whose body is
    consumed from ``tokens``.  Raises :class:`_Truncated` when
    ``tokens`` runs out mid-construct.
    """
    lead = token[0]
    if lead in _SCALAR_VALUES:
        code = token[1:]
        if not code:
            raise TraceError(f"scalar change {token!r} lacks an id")
        return code, _SCALAR_VALUES[lead]
    if lead in "bB":
        code = next(tokens, None)
        if code is None:
            raise _Truncated(f"vector change {token!r} lacks an id")
        bits = token[1:]
        if any(c in "xXzZ" for c in bits):
            return code, None
        try:
            return code, int(bits, 2)
        except ValueError:
            raise TraceError(f"bad vector value {token!r}") from None
    if lead in "rR":
        code = next(tokens, None)
        if code is None:
            raise _Truncated(f"real change {token!r} lacks an id")
        try:
            return code, int(float(token[1:]) != 0.0)
        except ValueError:
            raise TraceError(f"bad real value {token!r}") from None
    if token == "$dumpoff":
        # A blackout section: every signal is dumped as x/z purely to
        # mark the gap.  Applying those would read all symbols false
        # and register a phantom clock edge at $dumpon, so the section
        # is skipped wholesale — values hold until $dumpon re-dumps
        # them.  (``in`` consumes the iterator up to the ``$end``.)
        if "$end" not in tokens:
            raise _Truncated("unterminated $dumpoff section (missing $end)")
    elif token in _DUMP_DIRECTIVES or token == "$end":
        pass
    elif lead == "$":
        if "$end" not in tokens:
            raise _Truncated(f"unterminated {token} directive (missing $end)")
    else:
        raise TraceError(f"unexpected value-change token {token!r}")
    return None


def _scalar_actions(all_codes: Iterable[str], code_bits: Dict[str, int],
                    clock_codes: frozenset) -> Dict[str, tuple]:
    """Precompiled scalar-change dispatch: token -> ``(hi, lo, saw, clk)``.

    Scalar changes are drawn from a small finite vocabulary — a value
    character (``01xXzZ``) glued to one of the declared identifier
    codes — so the whole per-token decision (slice off the code, look
    up its bits, classify the value, test clock membership) collapses
    into a single dict probe computed once per conversion.  ``clk`` is
    0 for non-clock codes, 1 for a high clock edge, 2 for low/unknown.
    """
    actions: Dict[str, tuple] = {}
    for code in all_codes:
        bits = code_bits.get(code, 0)
        if code in clock_codes:
            high_clk, low_clk = 1, 2
        else:
            high_clk = low_clk = 0
        actions["1" + code] = (bits, 0, _F_SAW, high_clk)
        actions["0" + code] = (0, bits, _F_SAW, low_clk)
        for unknown in ("x", "X", "z", "Z"):
            # x/z read as value None: no saw_value, symbol goes low.
            actions[unknown + code] = (0, bits, 0, low_clk)
    return actions


def _parse_chunk(text: str, actions: Dict[str, tuple],
                 code_bits: Dict[str, int],
                 clock_codes: frozenset,
                 final: bool,
                 until: Optional[int],
                 instant: Optional[int]) -> Optional[tuple]:
    """One block of the change stream -> per-instant delta records.

    Context-free by design: the parser knows nothing about values set
    before its block (only, as ``instant``, the time of an instant
    still open at its start, which a leading timestamp at that time
    continues), so each record carries only what changed —
    ``set``/``clear`` bit deltas over the (code or symbol) bitspace,
    and clock flags whose "did it rise?" question may be deferred to
    the replay (``_F_ROSE_IF_LOW``) when the incoming level is
    unknown.  Returns ``(times, sets, clears, flags)``, one entry per
    instant — or ``None`` when a non-``final`` block ends
    mid-construct.

    Under clock sampling the parser elides instants that carry no
    bit deltas and no clock rise — typically every falling clock edge,
    half of a synchronous dump.  The replay never samples on them and
    ``saw_value`` is not consulted under clock sampling; the one thing
    they feed, the level seen by the *next* block's deferred-rise
    resolution, is preserved by a trailing zero-delta record whenever
    the block's final level differs from the last level shipped.  An
    elided instant still parts the instants around it: when time runs
    backwards, the records on either side may share a time, and the
    replay would merge them; so a zero-delta record stands in for the
    elided instants whenever that can happen (within the block, and at
    either of its ends).

    Parsing stops at the first timestamp past ``until``, which ends
    the records as a zero-delta record the replay stops on; the text
    after it is never read.
    """
    times: List[int] = []
    sets: List[int] = []
    clears: List[int] = []
    flags = bytearray()
    times_append = times.append
    sets_append = sets.append
    clears_append = clears.append
    flags_append = flags.append

    cur_time = 0 if instant is None else instant
    pending = instant is not None
    hi = 0
    lo = 0
    flag = 0
    quiet_level = 0    # latest level bits seen (shipped or elided)
    shipped_level = 0  # latest level bits actually shipped
    elided = None      # time of an instant elided since the last record
    clock_level: Optional[bool] = None  # unknown at block entry
    actions_get = actions.get
    bits_get = code_bits.get
    has_clock = bool(clock_codes)
    # Hot-loop locals: global flag constants cost a dict probe per use.
    f_rose = _F_ROSE
    f_rose_if_low = _F_ROSE_IF_LOW
    f_level_low = _F_LEVEL_LOW
    f_level_high = _F_LEVEL_HIGH
    rose_bits = f_rose | f_rose_if_low
    level_bits = f_level_low | f_level_high
    stop_time: Optional[int] = None
    initial = instant is None  # changes now are the dump's initial values
    stream = iter(text.split())
    try:
        for token in stream:
            act = actions_get(token)
            if act is not None:
                # Scalar change of a declared code: the precompiled path.
                token_hi, token_lo, saw, clk = act
                pending = True
                if token_hi or token_lo:
                    hi = (hi | token_hi) & ~token_lo
                    lo = (lo | token_lo) & ~token_hi
                flag |= saw
                if clk:
                    if clk == 1:
                        if clock_level is None:
                            flag |= f_rose_if_low
                        elif not clock_level:
                            flag |= f_rose
                        clock_level = True
                        flag = (flag & ~f_level_low) | f_level_high
                    else:
                        clock_level = False
                        flag = (flag & ~f_level_high) | f_level_low
                continue
            if token[0] == "#":
                try:
                    time = int(token[1:])
                except ValueError:
                    raise TraceError(f"bad timestamp token {token!r}")
                if pending and time == cur_time:
                    continue  # same instant continues
                if until is not None and time > until:
                    stop_time = time
                    break
                if pending:
                    if initial:
                        flag |= _F_INITIAL
                    if has_clock and not hi and not lo and not (
                        flag & rose_bits
                    ):
                        level = flag & level_bits
                        if level:
                            quiet_level = level
                        elided = cur_time
                    else:
                        if elided is not None and (
                            not times or times[-1] == cur_time
                        ):
                            times_append(elided)
                            sets_append(0)
                            clears_append(0)
                            flags_append(0)
                        elided = None
                        times_append(cur_time)
                        sets_append(hi)
                        clears_append(lo)
                        flags_append(flag)
                        level = flag & level_bits
                        if level:
                            quiet_level = shipped_level = level
                    hi = lo = flag = 0
                initial = False
                cur_time = time
                pending = True
                continue
            # Vector/real changes, scalars of undeclared codes (which
            # malformed dumps carry) and directives: the cold path.
            change = _change(token, stream)
            if change is None:
                continue
            code, value = change
            pending = True
            if value is not None:
                flag |= _F_SAW
                high = value != 0
            else:
                high = False
            if has_clock and code in clock_codes:
                if high:
                    if clock_level is None:
                        flag |= f_rose_if_low
                    elif not clock_level:
                        flag |= f_rose
                clock_level = high
                flag = (flag & ~level_bits) | (
                    f_level_high if high else f_level_low
                )
            bits = bits_get(code)
            if bits:
                if high:
                    hi |= bits
                    lo &= ~bits
                else:
                    lo |= bits
                    hi &= ~bits
    except _Truncated as cut:
        if final:
            raise TraceError(str(cut)) from None
        return None
    if pending:
        if initial:
            flag |= _F_INITIAL
        if has_clock and not hi and not lo and not (flag & rose_bits):
            level = flag & level_bits
            if level:
                quiet_level = level
            elided = cur_time
        else:
            if elided is not None and (not times or times[-1] == cur_time):
                times_append(elided)
                sets_append(0)
                clears_append(0)
                flags_append(0)
            elided = None
            times_append(cur_time)
            sets_append(hi)
            clears_append(lo)
            flags_append(flag)
            level = flag & level_bits
            if level:
                quiet_level = shipped_level = level
    if has_clock and (quiet_level != shipped_level or elided is not None):
        # Resync the level the next block's deferred rise will read,
        # and part the block's last instant from the next block's.
        times_append(cur_time)
        sets_append(0)
        clears_append(0)
        flags_append(quiet_level)
    if stop_time is not None:
        times_append(stop_time)
        sets_append(0)
        clears_append(0)
        flags_append(0)
    return times, sets, clears, flags


def _symbol_mask(code_vals: int, symbol_bits_of: List[int]) -> int:
    """Symbol mask of a code-bit snapshot (multi-driver general case)."""
    mask = 0
    vals = code_vals
    while vals:
        low = vals & -vals
        mask |= symbol_bits_of[low.bit_length() - 1]
        vals ^= low
    return mask


class _Sampler:
    """The replay: the sampling discipline, as state carried from block
    to block.

    The single sequential pass that owns the sampling semantics:
    same-instant merging (an instant split over several blocks, or a
    ``$dumpvars`` section before ``#0``, merges under the same-time
    rule), ``saw_value`` gating, periodic phase skipping and the
    window's early exit (``done``).  :meth:`replay` applies one block's
    delta records; the C block parser (:mod:`repro.trace.vcd_native`)
    runs the same state machine over these same fields, so either side
    continues where the other left off.
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

    def replay(self, records: tuple) -> List[int]:
        """The masks one block's delta records close."""
        has_clock, period, offset, until = (self.has_clock, self.period,
                                            self.offset, self.until)
        direct, symbol_bits_of = self.direct, self.symbol_bits_of
        code_vals, mask, level, rose = (self.code_vals, self.mask,
                                        self.level, self.rose)
        saw, pending, block_time, next_sample = (
            self.saw, self.pending, self.block_time, self.next_sample)
        out: List[int] = []
        append = out.append
        for time, hi, lo, flag in zip(*records):
            if not (pending and time == block_time):
                # A new instant: close the previous one.
                if pending:
                    if has_clock:
                        if rose and block_time >= offset and (
                            until is None or block_time <= until
                        ):
                            append(mask)
                        rose = False
                    elif period is None and saw and block_time >= offset \
                            and (until is None or block_time <= until):
                        append(mask)
                # Initial values dumped before any timestamp open their
                # instant (time 0) without one: no grid point passes
                # and no window closes yet.
                if pending or not flag & _F_INITIAL:
                    if period is not None and next_sample < time:
                        if saw:
                            while next_sample < time and (
                                until is None or next_sample <= until
                            ):
                                append(mask)
                                next_sample += period
                        else:
                            # No value has appeared yet, so grid points
                            # up to here would be phantom ticks
                            # back-filled with future values; skip
                            # them, keeping the grid's offset phase.
                            next_sample += \
                                -((next_sample - time) // period) * period
                    if until is not None and time > until:
                        # The rest of the dump is outside the window.
                        self.done = True
                        break
                block_time = time
                pending = True
            if hi or lo:
                new_vals = (code_vals | hi) & ~lo
                if new_vals != code_vals:
                    code_vals = new_vals
                    mask = (code_vals if direct
                            else _symbol_mask(code_vals, symbol_bits_of))
            if flag:
                if flag & _F_SAW:
                    saw = True
                if has_clock:
                    if (flag & _F_ROSE) or (
                        (flag & _F_ROSE_IF_LOW) and not level
                    ):
                        rose = True
                    if flag & _F_LEVEL_HIGH:
                        level = True
                    elif flag & _F_LEVEL_LOW:
                        level = False
        self.code_vals, self.mask, self.level, self.rose = (code_vals, mask,
                                                            level, rose)
        self.saw, self.pending, self.block_time, self.next_sample = (
            saw, pending, block_time, next_sample)
        return out

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
