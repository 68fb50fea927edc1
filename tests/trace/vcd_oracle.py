"""A frozen, test-only VCD sampler: the reference the front-end is
checked against, plus the seam-stress dump the suites share.

This is the per-change tokenizer and sampling loop the library used
before its VCD front-end became one block parser plus one replay.  It
shares nothing with that front-end but the header and binding
(``VcdReader.signals`` / ``_sampling_bound``, unchanged code): it
tokenises the whole dump itself, walks every change record, and keeps
per-symbol driver counts.  Keep it frozen — its value is that it is
an independent implementation of the same semantics.
"""

import io
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.logic.valuation import Valuation
from repro.trace.vcd_reader import VcdReader

# A dump built to stress every seam-sensitive semantic at once:
# $dumpvars initial x values, duplicate timestamp markers (one logical
# instant split over several blocks), vectors, a mid-stream directive,
# a $dumpoff blackout, and changes for signals outside the binding.
TRICKY_VCD = """\
$timescale 1 ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 1 " req $end
$var wire 8 # data [7:0] $end
$var wire 1 $ ack $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
0"
bxxxxxxxx #
x$
$end
#1
1!
1"
#1
b1010 #
#2
0!
$comment seam bait $end
#3
1!
1$
#3
0"
#4
0!
$dumpoff
x!
x"
$end
$dumpon
0!
0"
b0 #
0$
$end
#5
1!
b11 #
#6
0!
#7
1!
"""

_SCALAR_VALUES = {"0": 0, "1": 1, "x": None, "X": None, "z": None, "Z": None}
_DUMP_DIRECTIVES = {"$dumpvars", "$dumpall", "$dumpon", "$dumpoff"}


def _tokens(text: str, chunk_size: int) -> Iterator[str]:
    """Whitespace tokens of ``text``, read ``chunk_size`` at a time."""
    stream = io.StringIO(text)
    pending = ""
    while True:
        chunk = stream.read(chunk_size)
        if not chunk:
            if pending:
                yield pending
            return
        parts = (pending + chunk).split()
        if parts and not chunk[-1].isspace():
            pending = parts.pop()
        else:
            pending = ""
        yield from parts


def _skip_header(tokens: Iterator[str]) -> None:
    for token in tokens:
        if token.startswith("$"):
            for body in tokens:
                if body == "$end":
                    break
            if token == "$enddefinitions":
                return


def _body_until_end(tokens: Iterator[str], name: str) -> None:
    for token in tokens:
        if token == "$end":
            return
    raise TraceError(f"unterminated {name} directive (missing $end)")


def oracle_changes(text: str, chunk_size: int = 1 << 16
                   ) -> Iterator[Tuple[int, str, Optional[int]]]:
    """``(time, code, value)`` records; ``(time, "", None)`` per
    timestamp."""
    tokens = _tokens(text, chunk_size)
    _skip_header(tokens)
    time = 0
    for token in tokens:
        lead = token[0]
        if lead in _SCALAR_VALUES:
            code = token[1:]
            if not code:
                raise TraceError(f"scalar change {token!r} lacks an id")
            yield time, code, _SCALAR_VALUES[lead]
        elif lead == "#":
            try:
                time = int(token[1:])
            except ValueError:
                raise TraceError(f"bad timestamp token {token!r}")
            yield time, "", None
        elif lead in "bBrR":
            code = next(tokens, None)
            if code is None:
                raise TraceError(f"vector change {token!r} lacks an id")
            if lead in "bB":
                bits = token[1:]
                if any(c in "xXzZ" for c in bits):
                    yield time, code, None
                else:
                    try:
                        yield time, code, int(bits, 2)
                    except ValueError:
                        raise TraceError(f"bad vector value {token!r}")
            else:
                try:
                    yield time, code, int(float(token[1:]) != 0.0)
                except ValueError:
                    raise TraceError(f"bad real value {token!r}")
        elif token == "$dumpoff":
            _body_until_end(tokens, "$dumpoff")
        elif token in _DUMP_DIRECTIVES or token == "$end":
            continue
        elif lead == "$":
            _body_until_end(tokens, token)
        else:
            raise TraceError(f"unexpected value-change token {token!r}")


def oracle_valuations(text: str, binding=None, clock: Optional[str] = None,
                      period: Optional[int] = None, offset: int = 0,
                      until: Optional[int] = None,
                      chunk_size: int = 1 << 16) -> List[Valuation]:
    """One valuation per sampled tick (see ``VcdReader.valuations``)."""
    if clock is not None and period is not None:
        raise TraceError("choose clock or period sampling, not both")
    if period is not None and period <= 0:
        raise TraceError("sampling period must be positive")
    bound, clock_codes = VcdReader.from_text(
        text, binding=binding)._sampling_bound(clock)
    alphabet = frozenset(s for symbols in bound.values() for s in symbols)
    out: List[Valuation] = []
    true_now: set = set()
    counts: Dict[str, int] = {}  # symbol -> number of high drivers
    code_high: Dict[str, bool] = {}
    clock_high = False
    clock_rose = False
    block_time = 0
    next_sample = offset
    saw_value = False
    pending_block = False

    def snapshot() -> Valuation:
        return Valuation(frozenset(true_now), alphabet)

    def in_window(time: int) -> bool:
        return time >= offset and (until is None or time <= until)

    for time, code, value in oracle_changes(text, chunk_size):
        if code:
            # Changes before any timestamp belong to an implicit
            # instant at time 0.
            pending_block = True
            if value is not None:
                saw_value = True
                high = value != 0
            else:
                high = False
            if code in clock_codes:
                if high and not clock_high:
                    clock_rose = True
                clock_high = high
            symbols = bound.get(code)
            if not symbols or code_high.get(code, False) == high:
                continue
            code_high[code] = high
            for symbol in symbols:
                if high:
                    counts[symbol] = counts.get(symbol, 0) + 1
                    true_now.add(symbol)
                else:
                    counts[symbol] = counts.get(symbol, 0) - 1
                    if counts[symbol] <= 0:
                        true_now.discard(symbol)
            continue
        # Timestamp marker.
        if pending_block and time == block_time:
            continue  # the same instant continues
        if pending_block:
            if clock is not None:
                if clock_rose and in_window(block_time):
                    out.append(snapshot())
                clock_rose = False
            elif period is None and saw_value and in_window(block_time):
                out.append(snapshot())
        if period is not None:
            if saw_value:
                while next_sample < time and (until is None
                                              or next_sample <= until):
                    out.append(snapshot())
                    next_sample += period
            else:
                while next_sample < time:
                    next_sample += period
        if until is not None and time > until:
            return out
        block_time = time
        pending_block = True
    if pending_block:
        if clock is not None:
            if clock_rose and in_window(block_time):
                out.append(snapshot())
        elif period is None and saw_value and in_window(block_time):
            out.append(snapshot())
        if period is not None and saw_value:
            stop = block_time if until is None else until
            while next_sample <= stop:
                out.append(snapshot())
                next_sample += period
    return out


def oracle_masks(text: str, codec, binding=None, **sampling) -> List[int]:
    """:func:`oracle_valuations` encoded through ``codec``."""
    return [codec.encode(valuation)
            for valuation in oracle_valuations(text, binding=binding,
                                               **sampling)]
