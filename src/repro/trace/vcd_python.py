"""The Python VCD block parser, the reference the C parser matches.

:func:`parse_chunk` reduces a block of the change stream to
per-instant delta records and :func:`replay` applies them to the
reader's sampler.  It takes the blocks the C parser
(:mod:`repro.trace.vcd_native`) does not, and every block without one;
the reader imports it at the first such block.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import TraceError

__all__ = ["Truncated", "decode_change", "parse_chunk", "replay",
           "scalar_actions", "timestamp"]

#: Scalar change tokens.  ``x``/``z`` map to ``None`` — "no known
#: value" — which samples as false, never rises a clock, and does not
#: count as the dump's first real value (see the x/z semantics in
#: :mod:`repro.trace.vcd_reader`).
_SCALAR_VALUES = {"0": 0, "1": 1, "x": None, "X": None, "z": None, "Z": None}

#: Dump-section markers that bracket ordinary value-change tokens.
_DUMP_DIRECTIVES = {"$dumpvars", "$dumpall", "$dumpon", "$dumpoff"}

# Per-instant clock/validity flags carried by delta records.
_F_ROSE = 1          # clock rose within the instant (previous level known low)
_F_ROSE_IF_LOW = 2   # clock went high but the incoming level is block-unknown
_F_LEVEL_LOW = 4     # clock level at end of instant: low
_F_LEVEL_HIGH = 8    # clock level at end of instant: high
_F_SAW = 16          # some change carried a real (non-x/z) value
_F_INITIAL = 32      # the instant's changes came before any timestamp


class Truncated(Exception):
    """A block ended inside a multi-token construct.

    The message is the :class:`TraceError` a final block raises.
    """


def timestamp(token: str) -> int:
    try:
        return int(token[1:])
    except ValueError:
        raise TraceError(f"bad timestamp token {token!r}") from None


def decode_change(token: str, tokens: Iterator[str]):
    """Decode one change-stream token that is not a declared scalar.

    Returns ``(code, value)`` for a value change (``value`` is ``None``
    for ``x``/``z``), or ``None`` for a directive, whose body is
    consumed from ``tokens``.  Raises :class:`Truncated` when
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
            raise Truncated(f"vector change {token!r} lacks an id")
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
            raise Truncated(f"real change {token!r} lacks an id")
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
            raise Truncated("unterminated $dumpoff section (missing $end)")
    elif token in _DUMP_DIRECTIVES or token == "$end":
        pass
    elif lead == "$":
        if "$end" not in tokens:
            raise Truncated(f"unterminated {token} directive (missing $end)")
    else:
        raise TraceError(f"unexpected value-change token {token!r}")
    return None


def scalar_actions(all_codes: Iterable[str], code_bits: Dict[str, int],
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


def parse_chunk(text: str, actions: Dict[str, tuple],
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
            change = decode_change(token, stream)
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
    except Truncated as cut:
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


def replay(sampler, records: tuple) -> List[int]:
    """The masks one block's delta records close, carrying ``sampler``'s
    state (a :class:`~repro.trace.vcd_reader._Sampler`) forward."""
    has_clock, period, offset, until = (sampler.has_clock, sampler.period,
                                        sampler.offset, sampler.until)
    direct, symbol_bits_of = sampler.direct, sampler.symbol_bits_of
    code_vals, mask, level, rose = (sampler.code_vals, sampler.mask,
                                    sampler.level, sampler.rose)
    saw, pending, block_time, next_sample = (
        sampler.saw, sampler.pending, sampler.block_time, sampler.next_sample)
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
                    sampler.done = True
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
    sampler.code_vals, sampler.mask, sampler.level, sampler.rose = (
        code_vals, mask, level, rose)
    sampler.saw, sampler.pending, sampler.block_time, sampler.next_sample = (
        saw, pending, block_time, next_sample)
    return out
