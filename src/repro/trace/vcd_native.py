"""The native VCD front-end: change-stream blocks parsed and sampled in C.

One fixed C translation unit does, in one pass over one block of
change-stream text, the work of the Python block parser
(:func:`~repro.trace.vcd_python.parse_chunk`) plus the replay
(:func:`~repro.trace.vcd_python.replay`): it tokenizes the block,
applies clock, period or event sampling with the ``offset``/``until``
window, and writes one mask per tick.  The sampling state lives in the
Python sampler and is copied in and out around each block, so the C
side and the Python side can take turns block by block.

The source never changes with the dump: the identifier-code table,
the code bits and the sampling parameters arrive at run time in a
``vcd_config``, so the object is compiled once per toolchain through
:func:`repro.runtime.native.shared_object` (the stepper's compiler
discovery and fingerprinted, fail-closed shared-object cache), and no
dump ever triggers a compile.

The contract with the Python path (``repro_vcd_block``'s status):

* ``OK`` — the block is consumed; state and masks are committed.
* ``TRUNCATED`` — a non-final block ends inside a vector change or a
  directive body; nothing is committed, and the block is joined with
  more text and tried again (:meth:`VcdReader._parsed_blocks
  <repro.trace.vcd_reader.VcdReader._parsed_blocks>`).
* ``FALLBACK`` — the block holds an error or leaves the C grammar;
  nothing is committed, and the Python parser parses the block and its
  records are replayed into the same state.  Outside the grammar: any
  byte >= 0x80, a timestamp that is not plain ASCII digits fitting
  int64, a real value, a vector value other than ``[01xXzZ]+``, or
  sampling arithmetic leaving int64.  So masks and
  :class:`~repro.errors.TraceError` text never depend on which side
  parsed a block.
* ``FULL`` — more ticks than the mask buffer holds; nothing is
  committed, and the block runs again with a larger buffer.

Without a C compiler, or with ``REPRO_NO_CC=1``, :func:`block_parser`
returns ``None`` and every block takes the Python path.

The same unit holds the range check of a columnar trace set
(:func:`mask_span`: the least and greatest mask of an ``array('i')``
in one loop), since every ``.rtrc`` load runs it over the whole
payload; without the unit it is Python's ``min`` and ``max``.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.native import shared_object, unavailable_reason

__all__ = ["FALLBACK", "NativeBlocks", "available", "block_parser",
           "mask_span"]

_SOURCE = r"""
/* repro VCD change-stream block parser and sampler (fixed source;
 * see repro/trace/vcd_native.py for the contract). */
#include <stdint.h>
#include <string.h>

#ifdef _WIN32
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

#define VCD_OK 0
#define VCD_TRUNCATED 1
#define VCD_FALLBACK 2
#define VCD_FULL 3

typedef struct {
    uint64_t code_vals;   /* current value of every code bit */
    int64_t mask;         /* symbol mask of code_vals */
    int64_t block_time;   /* time of the open instant */
    int64_t next_sample;  /* next grid point (period sampling) */
    int32_t level;        /* the sampling clock is high */
    int32_t rose;         /* the clock rose within the open instant */
    int32_t saw;          /* some change carried a real value */
    int32_t pending;      /* an instant is open */
    int32_t done;         /* past `until`: read no further */
    int32_t unused;
} vcd_state;

typedef struct {
    const uint8_t *codes;        /* identifier codes, concatenated */
    const int64_t *code_off;     /* n_codes + 1 offsets into codes */
    const uint64_t *code_bits;   /* code bits each code drives */
    const uint8_t *code_clock;   /* 1 for the sampling clock's codes */
    int32_t *slots;              /* hash slots: code index, or -1 */
    int32_t *single;             /* 256 one-byte codes: index, or -1 */
    const int64_t *symbol_bits;  /* code bit -> symbol bits; 0 = direct */
    int64_t n_codes;
    int64_t slot_mask;           /* slot count - 1, a power of two */
    int64_t period, offset, until;
    int32_t has_clock, has_period, has_until, unused;
} vcd_config;

typedef struct {
    const vcd_config *cfg;
    vcd_state st;
    int32_t *out;
    int64_t cap, n;
    int dirty;                   /* st.mask is stale */
} vcd_run;

/* str.split() whitespace among ASCII: \t \n \v \f \r, \x1c-\x1f, ' '. */
static const uint8_t SPACE[256] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1,
    1,
};
#define is_space(c) (SPACE[(uint8_t)(c)])

static uint64_t hash_bytes(const uint8_t *p, int64_t n)
{
    uint64_t h = 1469598103934665603ULL;
    for (int64_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

static int64_t lookup(const vcd_config *cfg, const uint8_t *p, int64_t n)
{
    if (n == 1)
        return cfg->single[p[0]];
    uint64_t slot = hash_bytes(p, n) & (uint64_t)cfg->slot_mask;
    for (;;) {
        int32_t index = cfg->slots[slot];
        if (index < 0)
            return -1;
        int64_t start = cfg->code_off[index];
        if (cfg->code_off[index + 1] - start == n
                && memcmp(cfg->codes + start, p, (size_t)n) == 0)
            return index;
        slot = (slot + 1) & (uint64_t)cfg->slot_mask;
    }
}

/* Fill the one-byte table and the hash slots (n_codes distinct
 * codes, slot_mask + 1 > n_codes slots). */
EXPORT void repro_vcd_index(const vcd_config *cfg)
{
    for (int c = 0; c < 256; c++)
        cfg->single[c] = -1;
    for (int64_t s = 0; s <= cfg->slot_mask; s++)
        cfg->slots[s] = -1;
    for (int64_t i = 0; i < cfg->n_codes; i++) {
        const uint8_t *p = cfg->codes + cfg->code_off[i];
        int64_t n = cfg->code_off[i + 1] - cfg->code_off[i];
        if (n == 1) {
            cfg->single[p[0]] = (int32_t)i;
            continue;
        }
        uint64_t slot = hash_bytes(p, n) & (uint64_t)cfg->slot_mask;
        while (cfg->slots[slot] >= 0)
            slot = (slot + 1) & (uint64_t)cfg->slot_mask;
        cfg->slots[slot] = (int32_t)i;
    }
}

static void refresh_mask(vcd_run *r)
{
    const int64_t *symbol_bits = r->cfg->symbol_bits;
    if (!r->dirty)
        return;
    if (symbol_bits) {
        int64_t mask = 0;
        uint64_t vals = r->st.code_vals;
        for (int bit = 0; vals; bit++, vals >>= 1)
            if (vals & 1)
                mask |= symbol_bits[bit];
        r->st.mask = mask;
    } else {
        r->st.mask = (int64_t)r->st.code_vals;
    }
    r->dirty = 0;
}

static int emit(vcd_run *r)
{
    if (r->n >= r->cap)
        return 0;
    refresh_mask(r);
    r->out[r->n++] = (int32_t)r->st.mask;
    return 1;
}

/* A timestamp (or a first change) at time t: close the open instant,
 * fill the period grid up to t, and stop past `until`. */
static int open_instant(vcd_run *r, int64_t t)
{
    const vcd_config *cfg = r->cfg;
    vcd_state *st = &r->st;
    if (st->pending && t == st->block_time)
        return VCD_OK;
    if (st->pending) {
        int in_window = st->block_time >= cfg->offset
            && (!cfg->has_until || st->block_time <= cfg->until);
        if (cfg->has_clock) {
            if (st->rose && in_window && !emit(r))
                return VCD_FULL;
            st->rose = 0;
        } else if (!cfg->has_period && st->saw && in_window && !emit(r)) {
            return VCD_FULL;
        }
    }
    if (cfg->has_period && st->next_sample < t) {
        if (st->saw) {
            while (st->next_sample < t
                   && (!cfg->has_until || st->next_sample <= cfg->until)) {
                if (!emit(r))
                    return VCD_FULL;
                if (st->next_sample > INT64_MAX - cfg->period)
                    return VCD_FALLBACK;
                st->next_sample += cfg->period;
            }
        } else {
            /* No value yet: grid points before t would be phantom
             * ticks, so skip them, keeping the grid's phase. */
            if (t > INT64_MAX - cfg->period)
                return VCD_FALLBACK;
            uint64_t gap = (uint64_t)t - (uint64_t)st->next_sample;
            uint64_t period = (uint64_t)cfg->period;
            uint64_t steps = gap / period + (gap % period != 0);
            st->next_sample = (int64_t)((uint64_t)st->next_sample
                                        + steps * period);
        }
    }
    if (cfg->has_until && t > cfg->until) {
        st->done = 1;
        return VCD_OK;
    }
    st->block_time = t;
    st->pending = 1;
    return VCD_OK;
}

static void apply(vcd_run *r, int64_t index, int high, int known)
{
    vcd_state *st = &r->st;
    if (known)
        st->saw = 1;
    if (index < 0)
        return;  /* an undeclared code: no bits, never the clock */
    uint64_t bits = r->cfg->code_bits[index];
    if (bits) {
        if (high)
            st->code_vals |= bits;
        else
            st->code_vals &= ~bits;
        r->dirty = 1;
    }
    if (r->cfg->code_clock[index]) {
        if (high) {
            if (!st->level)
                st->rose = 1;
            st->level = 1;
        } else {
            st->level = 0;
        }
    }
}

/* `#` + ASCII digits that fit int64. */
static int parse_time(const uint8_t *p, int64_t n, int64_t *out)
{
    int64_t t = 0;
    if (n <= 0)
        return 0;
    for (int64_t i = 0; i < n; i++) {
        unsigned digit = (unsigned)p[i] - '0';
        if (digit > 9 || t > (INT64_MAX - (int64_t)digit) / 10)
            return 0;
        t = t * 10 + (int64_t)digit;
    }
    *out = t;
    return 1;
}

static int token_is(const uint8_t *p, int64_t n, const char *word)
{
    size_t length = strlen(word);
    return (size_t)n == length && memcmp(p, word, length) == 0;
}

/* Parse and sample one block of change-stream text.  `final` marks
 * the dump's last block; `out` receives up to `cap` masks and
 * `*n_out` their count.  State and masks are committed on VCD_OK
 * only. */
EXPORT int32_t repro_vcd_block(const vcd_config *cfg, vcd_state *state,
                               const uint8_t *text, int64_t len,
                               int32_t final, int32_t *out, int64_t cap,
                               int64_t *n_out)
{
    vcd_run r;
    vcd_state *st = &r.st;
    int64_t pos = 0;
    int rc;
    r.cfg = cfg;
    r.st = *state;
    r.out = out;
    r.cap = cap;
    r.n = 0;
    r.dirty = 0;
    for (int64_t i = 0; i < len; i++)
        if (text[i] & 0x80)
            return VCD_FALLBACK;
    for (;;) {
        while (pos < len && is_space(text[pos]))
            pos++;
        if (pos >= len)
            break;
        const uint8_t *tok = text + pos;
        while (pos < len && !is_space(text[pos]))
            pos++;
        int64_t n = text + pos - tok;
        uint8_t lead = tok[0];
        int64_t index;
        int high, known;
        if (lead == '#') {
            int64_t t;
            if (!parse_time(tok + 1, n - 1, &t))
                return VCD_FALLBACK;
            /* A repeated time continues the open instant, even one
             * carried over from the last block. */
            if ((rc = open_instant(&r, t)) != VCD_OK)
                return rc;
            if (st->done)
                break;  /* past `until`: nothing more is read */
            continue;
        }
        if (lead == '0' || lead == '1' || lead == 'x' || lead == 'X'
                || lead == 'z' || lead == 'Z') {
            if (n == 1)
                return VCD_FALLBACK;  /* a scalar change without an id */
            index = lookup(cfg, tok + 1, n - 1);
            known = lead == '0' || lead == '1';
            high = lead == '1';
        } else if (lead == 'b' || lead == 'B') {
            int one = 0, unknown = 0;
            if (n == 1)
                return VCD_FALLBACK;
            for (int64_t i = 1; i < n; i++) {
                uint8_t c = tok[i];
                if (c == '1')
                    one = 1;
                else if (c == 'x' || c == 'X' || c == 'z' || c == 'Z')
                    unknown = 1;
                else if (c != '0')
                    return VCD_FALLBACK;
            }
            while (pos < len && is_space(text[pos]))
                pos++;
            if (pos >= len)
                goto truncated;  /* the id is in the next block */
            const uint8_t *id = text + pos;
            while (pos < len && !is_space(text[pos]))
                pos++;
            index = lookup(cfg, id, text + pos - id);
            known = !unknown;
            high = known && one;
        } else if (lead == '$') {
            if (token_is(tok, n, "$dumpvars") || token_is(tok, n, "$dumpall")
                    || token_is(tok, n, "$dumpon") || token_is(tok, n, "$end"))
                continue;
            /* $dumpoff (a blackout: its x-dumps are not changes) and
             * every other directive: skip the body up to $end. */
            for (;;) {
                while (pos < len && is_space(text[pos]))
                    pos++;
                if (pos >= len)
                    goto truncated;
                const uint8_t *word = text + pos;
                while (pos < len && !is_space(text[pos]))
                    pos++;
                if (token_is(word, text + pos - word, "$end"))
                    break;
            }
            continue;
        } else {
            return VCD_FALLBACK;  /* real values and unexpected tokens */
        }
        if (!st->pending) {
            /* Initial values dumped before the first timestamp: their
             * instant (time 0) opens without one, so no grid point
             * passes and no window closes yet. */
            st->block_time = 0;
            st->pending = 1;
        }
        apply(&r, index, high, known);
    }
    refresh_mask(&r);
    *state = r.st;
    *n_out = r.n;
    return VCD_OK;
truncated:
    /* A final block's truncation is an error: Python words it. */
    return final ? VCD_FALLBACK : VCD_TRUNCATED;
}

/* The least and greatest of n masks into span[0] and span[1] (the
 * columnar range check; n == 0 leaves span[0] > span[1]). */
EXPORT void repro_mask_span(const int32_t *masks, int64_t n,
                            int32_t *span)
{
    int32_t low = INT32_MAX, high = INT32_MIN;
    for (int64_t i = 0; i < n; i++) {
        if (masks[i] < low)
            low = masks[i];
        if (masks[i] > high)
            high = masks[i];
    }
    span[0] = low;
    span[1] = high;
}
"""

_OK, _TRUNCATED, _FALLBACK, _FULL = 0, 1, 2, 3

#: Returned by :class:`NativeBlocks` for a block the Python parser
#: must take.
FALLBACK = object()

_INT64 = (-(1 << 63), (1 << 63) - 1)

#: Mask values must fit the ``array('i')`` the masks collect into.
_MASK_LIMIT = 1 << 31

#: Code bits ride in one ``uint64`` word.
_MAX_CODE_BITS = 64


class _State(ctypes.Structure):
    _fields_ = [
        ("code_vals", ctypes.c_uint64),
        ("mask", ctypes.c_int64),
        ("block_time", ctypes.c_int64),
        ("next_sample", ctypes.c_int64),
        ("level", ctypes.c_int32),
        ("rose", ctypes.c_int32),
        ("saw", ctypes.c_int32),
        ("pending", ctypes.c_int32),
        ("done", ctypes.c_int32),
        ("unused", ctypes.c_int32),
    ]


class _Config(ctypes.Structure):
    _fields_ = [
        ("codes", ctypes.c_void_p),
        ("code_off", ctypes.c_void_p),
        ("code_bits", ctypes.c_void_p),
        ("code_clock", ctypes.c_void_p),
        ("slots", ctypes.c_void_p),
        ("single", ctypes.c_void_p),
        ("symbol_bits", ctypes.c_void_p),
        ("n_codes", ctypes.c_int64),
        ("slot_mask", ctypes.c_int64),
        ("period", ctypes.c_int64),
        ("offset", ctypes.c_int64),
        ("until", ctypes.c_int64),
        ("has_clock", ctypes.c_int32),
        ("has_period", ctypes.c_int32),
        ("has_until", ctypes.c_int32),
        ("unused", ctypes.c_int32),
    ]


class _Library:
    """The loaded parser object: its path, cache key and entry points."""

    __slots__ = ("path", "key", "lib", "index", "block", "span")

    def __init__(self, path: str, key: str, bound: tuple):
        self.path = path
        self.key = key
        self.lib, self.index, self.block, self.span = bound


def _bind(lib) -> tuple:
    index = lib.repro_vcd_index
    index.restype = None
    index.argtypes = (ctypes.POINTER(_Config),)
    block = lib.repro_vcd_block
    block.restype = ctypes.c_int32
    block.argtypes = (
        ctypes.POINTER(_Config),
        ctypes.POINTER(_State),
        ctypes.c_char_p,                 # text
        ctypes.c_int64,                  # len
        ctypes.c_int32,                  # final
        ctypes.c_void_p,                 # out
        ctypes.c_int64,                  # cap
        ctypes.POINTER(ctypes.c_int64),  # n_out
    )
    span = lib.repro_mask_span
    span.restype = None
    span.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
    return lib, index, block, span


#: The per-process parser: ``None`` until first use, then a
#: :class:`_Library` or ``_UNBUILDABLE``.
_LIBRARY = None
_UNBUILDABLE = object()


def _library() -> Optional[_Library]:
    """The loaded parser, built on first use; ``None`` when unavailable."""
    global _LIBRARY
    if unavailable_reason() is not None:
        return None
    if _LIBRARY is None:
        built = shared_object(_SOURCE, _bind)
        _LIBRARY = _Library(*built) if built is not None else _UNBUILDABLE
    return None if _LIBRARY is _UNBUILDABLE else _LIBRARY


def available() -> bool:
    """Is the C parser loaded (building it on first call)?"""
    return _library() is not None


def mask_span(masks: array) -> Tuple[int, int]:
    """``(min, max)`` of a non-empty ``array('i')``: one C loop when
    the unit is available, else Python's ``min`` and ``max``."""
    library = _library()
    if library is None:
        return min(masks), max(masks)
    span = array("i", bytes(8))
    library.span(masks.buffer_info()[0], len(masks), span.buffer_info()[0])
    return span[0], span[1]


def _in_int64(value: int) -> bool:
    return _INT64[0] <= value <= _INT64[1]


class NativeBlocks:
    """One dump's C block parser, over a Python sampler's state.

    Call it with ``(text, final)`` for each block: it returns the
    block's masks as an ``array('i')``, ``None`` when a non-final
    block ends mid-construct, or :data:`FALLBACK` when the Python
    parser must take the block (state untouched).
    """

    def __init__(self, library: _Library, codes: Sequence[str],
                 code_bits: Dict[str, int], clock_codes,
                 symbol_bits_of: Optional[List[int]], sampler):
        self._block = library.block
        self._sampler = sampler
        blob = bytearray()
        offsets = array("q", [0])
        bits = array("Q")
        clocks = bytearray()
        for code in codes:
            blob += code.encode("utf-8")
            offsets.append(len(blob))
            bits.append(code_bits.get(code, 0))
            clocks.append(1 if code in clock_codes else 0)
        slots = 8
        while slots <= 2 * len(codes):
            slots *= 2
        # The buffers the config points into live as long as self.
        self._buffers = buffers = (
            array("B", blob or b"\0"), offsets, bits or array("Q", [0]),
            array("B", clocks or b"\0"), array("i", bytes(4 * slots)),
            array("i", bytes(4 * 256)), array("q", symbol_bits_of or [0]),
        )
        config = self._config = _Config()
        (config.codes, config.code_off, config.code_bits,
         config.code_clock, config.slots, config.single, symbol_bits) = (
            buffer.buffer_info()[0] for buffer in buffers)
        config.symbol_bits = symbol_bits if symbol_bits_of else None
        config.n_codes = len(codes)
        config.slot_mask = slots - 1
        config.has_clock = int(sampler.has_clock)
        config.has_period = int(sampler.period is not None)
        config.period = sampler.period or 0
        config.offset = sampler.offset
        config.has_until = int(sampler.until is not None)
        config.until = sampler.until if sampler.until is not None else 0
        library.index(ctypes.byref(config))
        self._state = _State()
        self._count = ctypes.c_int64()
        self._out = array("i")

    def __call__(self, text: str, final: bool):
        sampler = self._sampler
        if not text.isascii() or not (_in_int64(sampler.block_time)
                                      and _in_int64(sampler.next_sample)):
            return FALLBACK
        state = self._state
        state.code_vals = sampler.code_vals
        state.mask = sampler.mask
        state.block_time = sampler.block_time
        state.next_sample = sampler.next_sample
        state.level = sampler.level
        state.rose = sampler.rose
        state.saw = sampler.saw
        state.pending = sampler.pending
        state.done = 0
        data = text.encode("ascii")
        # One tick per timestamp at most, except period fills.
        need = len(data) // 2 + 16
        if len(self._out) < need:
            self._out = array("i", bytes(4 * need))
        while True:
            out = self._out
            status = self._block(
                ctypes.byref(self._config), ctypes.byref(state), data,
                len(data), int(final), out.buffer_info()[0], len(out),
                ctypes.byref(self._count))
            if status != _FULL:
                break
            self._out = array("i", bytes(8 * len(out)))
        if status == _TRUNCATED:
            return None
        if status != _OK:
            return FALLBACK
        sampler.code_vals = state.code_vals
        sampler.mask = state.mask
        sampler.block_time = state.block_time
        sampler.next_sample = state.next_sample
        sampler.level = bool(state.level)
        sampler.rose = bool(state.rose)
        sampler.saw = bool(state.saw)
        sampler.pending = bool(state.pending)
        sampler.done = bool(state.done)
        return self._out[:self._count.value]


def block_parser(codes: Sequence[str], code_bits: Dict[str, int],
                 clock_codes, direct: bool,
                 symbol_bits_of: Optional[List[int]],
                 sampler) -> Optional[NativeBlocks]:
    """The C parser for one dump's sampling setup, or ``None``.

    ``None`` — every block takes the Python path — when the parser is
    unavailable (no compiler, ``REPRO_NO_CC``, a toolchain failure),
    when the code bits outgrow one 64-bit word, when a mask could
    leave ``int32``, or when the sampling window leaves int64.
    ``codes`` are the declared identifier codes, without repeats.
    """
    if direct:
        if any(bits >= _MASK_LIMIT for bits in code_bits.values()):
            return None
    elif len(code_bits) > _MAX_CODE_BITS or any(
            bits >= _MASK_LIMIT for bits in symbol_bits_of):
        return None
    window = [sampler.offset]
    if sampler.period is not None:
        window.append(sampler.period)
    if sampler.until is not None:
        window.append(sampler.until)
    if not all(map(_in_int64, window)):
        return None
    library = _library()
    if library is None:
        return None
    return NativeBlocks(library, codes, code_bits, clock_codes,
                        None if direct else symbol_bits_of, sampler)
