"""Monitor -> self-contained C table-stepper source.

The C twin of :mod:`repro.codegen.python_gen`: one translation unit,
no includes beyond ``<stdint.h>``/``<string.h>``, mirroring the
table IR of :mod:`repro.runtime.lowering`
(:class:`~repro.runtime.lowering.VectorTable`) exactly —

* the flat ``int32 next_state[state * 2^|Sigma| + mask]`` dispatch
  array, check-free cells resolved by one load;
* escape cells in the predicated-plan encoding: each rung-term is a
  masked compare over a packed ``int64`` ``Chk_evt``-presence word
  and the valuation mask (the term holds iff ``word & mask == pos``),
  scanned first-match with a cross-group conflict scan for cells whose
  first-match safety is unproven;
* per-term scoreboard deltas with min-prefix under-run floors, tested
  *before* any counts mutation — identical anomaly ordering to the
  scalar loop.

Two exported entry points call one static step loop, so the unit
holds one copy of it:

* the **batch** entry (:data:`ENTRY_SYMBOL`) steps a whole batch of
  pre-encoded mask streams lane by lane from the initial state and
  writes the per-lane state history and detection ticks into
  caller-provided out-buffers;
* the **stream** entry (:data:`ENTRY_SYMBOL` + :data:`STREAM_SUFFIX`)
  steps one chunk from a state the caller keeps between calls — an
  ``int32`` buffer holding the state and the scoreboard counts — and
  writes the detection offsets and the number of ticks consumed.
  Asked to stop, it returns right after the first detecting tick.  It
  writes the buffer back only on success.

Their status codes:

* ``0`` — every lane (or the chunk) stepped to its end or its stop;
* ``1`` — stepping hit an anomaly and stopped there: a mask outside
  ``[0, SIZE)`` (the bounds guard — the stepper never indexes its
  table with an unchecked mask), a missing cell, no passing rung,
  cross-group nondeterminism, a strict ``Del_evt`` under-run, or a
  scoreboard count that would leave ``int32`` (never a wrapped value).

On ``1`` the caller (:mod:`repro.runtime.native`) runs the mask-domain
check and then replays the batch (or the chunk, from its start state)
through the scalar engine, so every error message stays byte-identical
to ``run_many`` and ``CompiledEngine.feed_masks`` — the C side never
formats errors.

:func:`table_to_c` raises :class:`~repro.errors.CodegenError` for
tables outside the lowering (non-predicable cells, oversized dense
tables, more than 63 scoreboard rows); callers gate on
:func:`lowerable` first.
"""

from __future__ import annotations

from typing import List

from repro.errors import CodegenError
from repro.runtime.lowering import _MAX_PRESENCE_BITS, VectorTable

__all__ = [
    "CGEN_VERSION",
    "ENTRY_SYMBOL",
    "STREAM_SUFFIX",
    "lowerable",
    "table_to_c",
]

#: Bump on any change to the emitted code or its ABI: the version is
#: written into the emitted source, which the shared-object cache key
#: covers, so stale objects from older emitters can never be loaded.
CGEN_VERSION = 3

#: The exported batch entry point's symbol name.
ENTRY_SYMBOL = "repro_native_run"

#: Appended to the batch entry's symbol: the stream entry point.
STREAM_SUFFIX = "_stream"

#: Dense tables beyond this many cells are unreasonable as one static
#: C array (the same order of magnitude the compiled runtime uses for
#: its dense-expansion cutoff, two orders up).
_MAX_TABLE_CELLS = 1 << 17


def lowerable(table: VectorTable) -> bool:
    """Can this lowering be emitted as C?

    Mirrors the constraints :func:`table_to_c` enforces: every escape
    cell predicated, the dense table within the static-array budget,
    and every counts row addressable in the packed presence word.
    """
    return (
        table.vectorizable
        and len(table.flat) <= _MAX_TABLE_CELLS
        and len(table.events) <= _MAX_PRESENCE_BITS
    )


def _int_lines(values, suffix: str = "", per_line: int = 12) -> List[str]:
    if not values:
        values = [0]
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        lines.append(
            "    " + ", ".join(f"{value}{suffix}" for value in chunk) + ","
        )
    return lines


def table_to_c(table: VectorTable, symbol: str = ENTRY_SYMBOL) -> str:
    """Emit the table-stepper for ``table`` as C source text: the batch
    entry ``symbol`` and the stream entry ``symbol + STREAM_SUFFIX``."""
    if not lowerable(table):
        raise CodegenError(
            f"cannot lower monitor {table.compiled.name!r} to C: "
            f"vectorizable={table.vectorizable}, "
            f"cells={len(table.flat)} (max {_MAX_TABLE_CELLS}), "
            f"events={len(table.events)} (max {_MAX_PRESENCE_BITS})"
        )
    # Flatten every spec's predicated plan into parallel term arrays:
    # spec i owns terms TERM_OFF[i]..TERM_OFF[i+1], term k owns deltas
    # T_DOFF[k]..T_DOFF[k+1].
    term_off = [0]
    cpos: List[int] = []
    cmask: List[int] = []
    ipos: List[int] = []
    imask: List[int] = []
    target: List[int] = []
    group: List[int] = []
    doff = [0]
    drow: List[int] = []
    dtotal: List[int] = []
    dfloor: List[int] = []
    safe: List[int] = []
    for spec in table.specs:
        plan = spec.plan
        if plan is None:  # pragma: no cover - excluded by lowerable()
            raise CodegenError(
                f"monitor {table.compiled.name!r}: escape cell in state "
                f"{spec.state} resisted predication"
            )
        safe.append(1 if plan.safe else 0)
        for term in plan.terms:
            cpos.append(term[0])
            cmask.append(term[1])
            ipos.append(term[2])
            imask.append(term[3])
            target.append(term[4])
            group.append(term[6])
            for row, total, floor in term[5]:
                drow.append(row)
                dtotal.append(total)
                dfloor.append(floor)
            doff.append(len(drow))
        term_off.append(len(cpos))

    compiled = table.compiled
    lines = [
        f"/* Auto-generated native table-stepper for monitor "
        f"{compiled.name!r}.",
        f" * {table.n_states} states x {table.size} masks, "
        f"{len(table.specs)} escape specs, {len(cpos)} rung terms.",
        f" * Emitted by repro.codegen.c_gen v{CGEN_VERSION}; "
        f"do not edit.",
        " */",
        "#include <stdint.h>",
        "#include <string.h>",
        "",
        f"#define N_STATES {table.n_states}",
        f"#define SIZE {table.size}",
        f"#define INITIAL {compiled.initial}",
        f"#define FINAL {table.final}",
        f"#define N_COUNTS {max(1, len(table.events))}",
        "",
    ]

    def emit(name, ctype, values, suffix=""):
        lines.append(
            f"static const {ctype} {name}[{max(1, len(values))}] = {{"
        )
        lines.extend(_int_lines(values, suffix))
        lines.append("};")
        lines.append("")

    emit("FLAT", "int32_t", list(table.flat))
    emit("TERM_OFF", "int32_t", term_off)
    emit("SPEC_SAFE", "uint8_t", safe)
    emit("T_CPOS", "int64_t", cpos, suffix="LL")
    emit("T_CMASK", "int64_t", cmask, suffix="LL")
    emit("T_IPOS", "int32_t", ipos)
    emit("T_IMASK", "int32_t", imask)
    emit("T_TARGET", "int32_t", target)
    emit("T_GROUP", "int32_t", group)
    emit("T_DOFF", "int32_t", doff)
    emit("D_ROW", "int32_t", drow)
    emit("D_TOTAL", "int32_t", dtotal)
    emit("D_FLOOR", "int32_t", dfloor)

    lines.extend([
        "#ifdef _WIN32",
        "#define EXPORT __declspec(dllexport)",
        "#else",
        '#define EXPORT __attribute__((visibility("default")))',
        "#endif",
        "",
        "/* The step loop both entry points share: step masks[0..len) from",
        " * *state_io and counts, write the state after tick t to",
        " * hist[t + 1] (when hist is not NULL) and detection offsets to",
        " * det.  With stop set it returns right after the first",
        " * detecting tick.  On 0, *state_io, counts, *n_det and",
        " * *consumed hold the end of the run; on 1 (the first anomaly:",
        " * a mask outside [0, SIZE), missing cell, no passing rung,",
        " * cross-group nondeterminism, strict Del_evt under-run, a count",
        " * leaving int32) they are partial and the caller discards them.",
        " */",
        "static int32_t step_loop(",
        "    const int32_t *masks, int64_t len, int32_t stop,",
        "    int32_t *state_io, int32_t *counts, int32_t *hist,",
        "    int32_t *det, int64_t *n_det, int64_t *consumed)",
        "{",
        "    int32_t state = *state_io;",
        "    int64_t presence = 0;",
        "    for (int32_t row = 0; row < N_COUNTS; row++) {",
        "        if (counts[row] > 0)",
        "            presence |= (int64_t)1 << row;",
        "    }",
        "    int64_t found = 0;",
        "    int64_t t = 0;",
        "    while (t < len) {",
        "        const int32_t mask = masks[t];",
        "        if ((uint32_t)mask >= (uint32_t)SIZE)",
        "            return 1;  /* mask outside the alphabet */",
        "        int32_t nxt = FLAT[state * SIZE + mask];",
        "        if (nxt < 0) {",
        "            if (nxt == -1)",
        "                return 1;  /* missing cell */",
        "            const int32_t spec = -2 - nxt;",
        "            const int32_t hi = TERM_OFF[spec + 1];",
        "            int32_t chosen = -1;",
        "            for (int32_t k = TERM_OFF[spec]; k < hi; k++) {",
        "                if ((presence & T_CMASK[k]) == T_CPOS[k]",
        "                    && (mask & T_IMASK[k]) == T_IPOS[k]) {",
        "                    chosen = k;",
        "                    break;",
        "                }",
        "            }",
        "            if (chosen < 0)",
        "                return 1;  /* no passing rung */",
        "            if (!SPEC_SAFE[spec]) {",
        "                const int32_t grp = T_GROUP[chosen];",
        "                for (int32_t k = chosen + 1; k < hi; k++) {",
        "                    if (T_GROUP[k] != grp",
        "                        && (presence & T_CMASK[k]) == T_CPOS[k]",
        "                        && (mask & T_IMASK[k]) == T_IPOS[k])",
        "                        return 1;  /* nondeterminism */",
        "                }",
        "            }",
        "            const int32_t dhi = T_DOFF[chosen + 1];",
        "            for (int32_t d = T_DOFF[chosen]; d < dhi; d++) {",
        "                const int64_t count = counts[D_ROW[d]];",
        "                if (count + D_FLOOR[d] < 0)",
        "                    return 1;  /* Del_evt under-run */",
        "                if (count + D_TOTAL[d] > INT32_MAX)",
        "                    return 1;  /* count leaves int32 */",
        "            }",
        "            for (int32_t d = T_DOFF[chosen]; d < dhi; d++) {",
        "                const int32_t row = D_ROW[d];",
        "                const int32_t value = counts[row] + D_TOTAL[d];",
        "                counts[row] = value;",
        "                if (value > 0)",
        "                    presence |= (int64_t)1 << row;",
        "                else",
        "                    presence &= ~((int64_t)1 << row);",
        "            }",
        "            nxt = T_TARGET[chosen];",
        "        }",
        "        state = nxt;",
        "        if (hist)",
        "            hist[t + 1] = state;",
        "        t++;",
        "        if (state == FINAL) {",
        "            det[found++] = (int32_t)(t - 1);",
        "            if (stop)",
        "                break;",
        "        }",
        "    }",
        "    *state_io = state;",
        "    *n_det = found;",
        "    *consumed = t;",
        "    return 0;",
        "}",
        "",
        "/* Step every lane of a batch of pre-encoded mask streams.",
        " *",
        " * masks      concatenated per-lane mask streams;",
        " * offsets    n_lanes + 1 cumulative stream offsets;",
        " * history    out: lane i's state sequence (len + 1 entries)",
        " *            at history + offsets[i] + i;",
        " * detections out: lane i's detection ticks at",
        " *            detections + offsets[i];",
        " * det_counts out: detections written per lane.",
        " *",
        " * Returns 0 on success, 1 on the first anomaly — the caller",
        " * then replays the batch through the scalar engine for the",
        " * byte-identical error.",
        " */",
        f"EXPORT int32_t {symbol}(",
        "    const int32_t *masks,",
        "    const int64_t *offsets,",
        "    int64_t n_lanes,",
        "    int32_t *history,",
        "    int32_t *detections,",
        "    int64_t *det_counts)",
        "{",
        "    for (int64_t lane = 0; lane < n_lanes; lane++) {",
        "        const int64_t lo = offsets[lane];",
        "        int32_t *hist = history + lo + lane;",
        "        int32_t state = INITIAL;",
        "        int32_t counts[N_COUNTS];",
        "        int64_t consumed;",
        "        memset(counts, 0, sizeof counts);",
        "        hist[0] = state;",
        "        if (step_loop(masks + lo, offsets[lane + 1] - lo, 0,",
        "                      &state, counts, hist, detections + lo,",
        "                      det_counts + lane, &consumed))",
        "            return 1;",
        "    }",
        "    return 0;",
        "}",
        "",
        "/* Step one chunk of a stream from a state kept between calls.",
        " *",
        " * io         in/out: the state, then counts[N_COUNTS];",
        " * stop       nonzero: stop right after the first detecting tick;",
        " * detections out: detection offsets into the chunk;",
        " * out        out: [detections written, ticks consumed].",
        " *",
        " * Returns 0 and writes io back, or 1 on the first anomaly with io",
        " * unchanged — the caller replays the chunk from there through",
        " * the scalar engine.",
        " */",
        f"EXPORT int32_t {symbol}{STREAM_SUFFIX}(",
        "    const int32_t *masks,",
        "    int64_t len,",
        "    int32_t *io,",
        "    int32_t stop,",
        "    int32_t *detections,",
        "    int64_t *out)",
        "{",
        "    int32_t state = io[0];",
        "    int32_t counts[N_COUNTS];",
        "    memcpy(counts, io + 1, sizeof counts);",
        "    if (step_loop(masks, len, stop, &state, counts, NULL,",
        "                  detections, out, out + 1))",
        "        return 1;",
        "    io[0] = state;",
        "    memcpy(io + 1, counts, sizeof counts);",
        "    return 0;",
        "}",
    ])
    return "\n".join(lines) + "\n"
