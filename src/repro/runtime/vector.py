"""Trace-parallel vectorized batch execution: the NumPy kernel.

:func:`~repro.runtime.compiled.run_many` steps one trace element per
Python iteration — fast per *monitor*, but the interpreter overhead is
paid per lane-tick.  This kernel steps the flat table IR of
:mod:`repro.runtime.lowering` (:class:`~repro.runtime.lowering.VectorTable`,
``next_state[state * 2^|Sigma| + mask]``) and advances **every trace
of a batch in lock-step with one indexed gather per tick** (NumPy
fancy indexing), so the per-tick interpreter cost is amortized over
the whole batch width.  It is the one runtime module that imports
NumPy; the lowering, the planner and the native stepper do without.

Escaped lanes
-------------
Negative table entries are escapes (ladder, action and missing cells;
see :mod:`repro.runtime.lowering`).  The escaped lanes of a tick
resolve **all at once** against the stacked predicated plans
(:func:`np_plan`): the per-lane presence words and masks are tested
against the ``(lane, rung)`` literal matrices, the first passing rung
per lane falls out of one ``argmax``, successor states gather from a
target matrix, and ``Add_evt``/``Del_evt`` scoreboard effects apply
to the ``counts[event, lane]`` matrix as one fancy-indexed delta add.
A companion *min-prefix* matrix detects strict ``Del_evt`` under-runs,
and a rung-difference matrix detects the full-scan nondeterminism the
scalar engines report — ``safe`` cells skip that check entirely.
Every anomaly check runs *before* any mutation, so a lane that must
raise **replays** through the scalar resolver on a scoreboard
reconstructed from its pre-tick counts column: the raised error —
message, trace-index order — is byte-identical to ``run_many``'s.
Caller-injected scoreboards are real objects with observable
mutations; those runs keep the scalar per-lane escape path.  The
differential suite (``tests/runtime/test_vector_differential.py``)
locks all of this down, including a seeded 100%-ladder-density stress
generator.

NumPy is an **optional** dependency: when it is absent (or the
``REPRO_NO_NUMPY`` environment variable is set) there is no gather to
run, and every batch steps through the scalar
:func:`~repro.runtime.compiled.run_many_encoded` loop instead —
identical results, so ``engine="vector"`` stays valid everywhere.
``_np`` is that switch (tests patch it).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Union

from repro.errors import MonitorError
from repro.monitor.automaton import Monitor
from repro.monitor.engine import MonitorResult
from repro.monitor.scoreboard import Scoreboard
from repro.runtime.compiled import (
    CompiledMonitor,
    _resolve_ladder,
    _run_many_encoded,
    as_compiled,
    check_mask_domain,
)
from repro.runtime.lowering import MISSING, VectorTable, vector_table
from repro.semantics.run import Trace

__all__ = [
    "MISSING",
    "VectorTable",
    "np_flat",
    "np_plan",
    "run_many_vector",
    "run_many_vector_encoded",
    "vector_table",
]

try:  # pragma: no cover - exercised via the no-NumPy differential run
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None
if os.environ.get("REPRO_NO_NUMPY"):  # test hook: force the scalar loop
    _np = None


class _NpPlan:
    """The stacked NumPy form of every spec's predicated plan.

    Row ``(spec, rung)`` of each matrix is one DNF term; specs with
    fewer terms than the widest pad with invalid rows.  Shared by
    every batch run of the owning table (built once, lazily).
    """

    __slots__ = ("valid", "cpos", "cmask", "ipos", "imask", "target",
                 "delta", "minp", "diff", "pow2", "n_events",
                 "any_chk", "any_inp", "has_ops", "has_dels",
                 "has_conflicts")

    def __init__(self, specs, n_events):
        rows = max(1, n_events)
        width = max([len(spec.plan.terms) for spec in specs] + [1])
        shape = (len(specs), width)
        self.n_events = n_events
        self.valid = _np.zeros(shape, dtype=bool)
        # A term holds iff ``word & (pos|neg) == pos`` — one masked
        # compare covers both literal polarities per family.
        self.cpos = _np.zeros(shape, dtype=_np.int64)
        self.cmask = _np.zeros(shape, dtype=_np.int64)
        self.ipos = _np.zeros(shape, dtype=_np.int32)
        self.imask = _np.zeros(shape, dtype=_np.int32)
        self.target = _np.zeros(shape, dtype=_np.int32)
        self.delta = _np.zeros(shape + (rows,), dtype=_np.int32)
        self.minp = _np.zeros(shape + (rows,), dtype=_np.int32)
        self.diff = _np.zeros(shape + (width,), dtype=bool)
        for index, spec in enumerate(specs):
            terms = spec.plan.terms
            for rung, term in enumerate(terms):
                self.valid[index, rung] = True
                self.cpos[index, rung] = term[0]
                self.cmask[index, rung] = term[1]
                self.ipos[index, rung] = term[2]
                self.imask[index, rung] = term[3]
                self.target[index, rung] = term[4]
                for row, total, floor in term[5]:
                    self.delta[index, rung, row] = total
                    self.minp[index, rung, row] = floor
            if not spec.plan.safe:
                for left, lterm in enumerate(terms):
                    for right, rterm in enumerate(terms):
                        self.diff[index, left, right] = (
                            lterm[6] != rterm[6]
                        )
        self.pow2 = _np.left_shift(
            _np.int64(1), _np.arange(n_events, dtype=_np.int64)
        )
        self.any_chk = bool(self.cmask.any())
        self.any_inp = bool(self.imask.any())
        self.has_ops = bool(self.delta.any() or self.minp.any())
        self.has_dels = bool(self.minp.any())
        self.has_conflicts = bool(self.diff.any())


def np_flat(table: VectorTable):
    """``table``'s flat array as a NumPy array (built once, shared)."""
    if table._np_flat is None:
        table._np_flat = _np.asarray(table.flat, dtype=_np.int32)
    return table._np_flat


def np_plan(table: VectorTable) -> _NpPlan:
    """``table``'s stacked predicated-plan matrices (built once, shared)."""
    if table._np_plan is None:
        table._np_plan = _NpPlan(table.specs, len(table.events))
    return table._np_plan


def _resolve_escape(compiled, table, state: int, mask: int, scoreboard,
                    trace_index: int, tick: int):
    """Scalar resolution of one escape lane: the transition taken.

    Mirrors the ``run_many`` inner loop exactly — same ladder
    semantics, same action application order, same error messages.
    """
    cell = table[state][mask]
    if type(cell) is tuple:
        cell = _resolve_ladder(
            cell, mask, scoreboard, compiled.ladder_exclusive,
            compiled.name, state,
        )
    if cell is None:
        raise MonitorError(
            f"monitor {compiled.name!r}: no transition enabled in "
            f"state {state} on input "
            f"{compiled.codec.decode(mask)!r} (trace {trace_index}, "
            f"tick {tick})"
        )
    for action in cell.actions:
        action.apply(scoreboard)
    return cell


def run_many_vector(
    monitor: Union[Monitor, CompiledMonitor],
    traces: Sequence[Trace],
    scoreboards: Optional[Sequence[Scoreboard]] = None,
    record_transitions: bool = False,
) -> List[MonitorResult]:
    """Drop-in for :func:`~repro.runtime.compiled.run_many`, vectorized.

    Traces are encoded once through the shared
    :meth:`~repro.logic.codec.AlphabetCodec.encode_trace` cache, then
    stepped lock-step through the flat table.  ``record_transitions``
    needs the per-tick transition *objects*, which no gather can
    produce — those runs, single-trace runs (nothing to gather across)
    and every run without NumPy delegate to the scalar ``run_many``
    loop (identical results either way).
    """
    compiled = as_compiled(monitor)
    if scoreboards is not None and len(scoreboards) != len(traces):
        raise MonitorError(
            "run_many needs exactly one scoreboard per trace when provided"
        )
    # Without NumPy the scalar loop runs, which indexes plain lists; ask
    # the cache for its memoized list form so warm batches pay no
    # conversion.
    # Encoded traces are in range by construction: no domain check.
    return _run_many_vector(
        compiled,
        compiled.codec.encode_many(traces, as_list=_np is None),
        scoreboards, record_transitions,
    )


def run_many_vector_encoded(
    monitor: Union[Monitor, CompiledMonitor],
    mask_arrays: Sequence[Sequence[int]],
    scoreboards: Optional[Sequence[Scoreboard]] = None,
    record_transitions: bool = False,
) -> List[MonitorResult]:
    """:func:`run_many_vector` over pre-encoded mask arrays.

    A mask outside ``[0, 2^|Sigma|)`` raises :class:`MonitorError`
    (see :func:`~repro.runtime.compiled.check_mask_domain`).
    """
    compiled = as_compiled(monitor)
    check_mask_domain(compiled, mask_arrays)
    return _run_many_vector(compiled, mask_arrays, scoreboards,
                            record_transitions)


def _run_many_vector(compiled, mask_arrays, scoreboards,
                     record_transitions) -> List[MonitorResult]:
    """:func:`run_many_vector_encoded` on masks known to be in range."""
    if record_transitions or len(mask_arrays) <= 1 or _np is None:
        # Transition logging is inherently scalar (every tick needs the
        # taken Transition object), one lane has nothing to gather
        # across, and without NumPy there is no gather at all: the
        # scalar loop runs all three.
        return _run_many_encoded(
            compiled, mask_arrays, scoreboards=scoreboards,
            record_transitions=record_transitions,
        )
    if scoreboards is not None and len(scoreboards) != len(mask_arrays):
        raise MonitorError(
            "run_many needs exactly one scoreboard per trace when provided"
        )
    return _run_numpy(compiled, mask_arrays, scoreboards)


class _VectorAnomaly(Exception):
    """Internal signal: some escaped lane of this tick must raise.

    Anomalies (strict ``Del_evt`` under-runs, no passing rung,
    scoreboard-dependent nondeterminism, missing cells) are detected
    batch-wide — and, in the predicated path, *before* any counts
    mutation — but ``run_many`` surfaces the failure of the *lowest
    trace index*; the handler re-resolves every escaped lane in trace
    order from the untouched pre-tick counts to raise the identical
    error.
    """


class _NumpyRun:
    """One lock-step batch execution (NumPy path).

    Lanes are sorted by trace length (descending) so the active set at
    any tick is a prefix and every per-tick array op is one slice.
    The scoreboard is the ``counts[event, lane]`` matrix unless the
    caller injected real scoreboards (their mutations are observable),
    in which case escapes resolve per lane through the scalar path.
    """

    def __init__(self, compiled, mask_arrays, scoreboards):
        self.compiled = compiled
        self.vt = vector_table(compiled)
        self.count = len(mask_arrays)
        self.lengths = [len(m) for m in mask_arrays]
        self.order = sorted(range(self.count), key=lambda i: -self.lengths[i])
        self.sorted_lengths = [self.lengths[i] for i in self.order]
        self.max_len = self.sorted_lengths[0] if self.count else 0
        # Tick-major layouts: each tick's gather reads/writes one
        # contiguous row instead of a strided column.
        self.mat = _np.zeros((self.max_len, self.count), dtype=_np.int32)
        for row, lane in enumerate(self.order):
            if self.lengths[lane]:
                self.mat[:self.lengths[lane], row] = _np.asarray(
                    mask_arrays[lane], dtype=_np.int32
                )
        # -1 never equals a state, so the region past a lane's length
        # stays inert for the batched detection scan below.
        self.history = _np.full((self.max_len + 1, self.count), -1,
                                dtype=_np.int32)
        self.history[0, :] = compiled.initial
        self.states = _np.full(self.count, compiled.initial, dtype=_np.int32)
        self.scalar_table = compiled._table
        self.vector_boards = scoreboards is None and self.vt.vectorizable
        self.counts = (
            _np.zeros((max(1, len(self.vt.events)), self.count),
                      dtype=_np.int32)
            if self.vector_boards and self.vt.escapes else None
        )
        self.plan = (
            np_plan(self.vt)
            if self.vector_boards and self.vt.escapes else None
        )
        # Per-lane packed Chk_evt-presence words, maintained
        # incrementally under the counts deltas: rebuilding them as
        # ``pow2 @ (counts > 0)`` every escape tick costs a whole-batch
        # matmul, while flips are rare and sparse.
        self.presence = (
            _np.zeros(self.count, dtype=_np.int64)
            if self.plan is not None and self.plan.any_chk else None
        )
        # Missing cells are the only escape codes the plan cannot
        # dispatch; tables without any skip the per-tick max scan.
        self.check_missing = self.vt.residual > 0
        self.lane_arange = _np.arange(self.count)
        if scoreboards is not None:
            self.boards: Optional[List[Scoreboard]] = [
                scoreboards[i] for i in self.order
            ]
        elif not self.vector_boards:
            self.boards = [Scoreboard() for _ in range(self.count)]
        else:
            self.boards = None

    # -- scalar replay -----------------------------------------------------
    def _board_for(self, row: int) -> Scoreboard:
        """A real scoreboard equal to lane ``row``'s counts column."""
        board = Scoreboard()
        if self.counts is not None:
            board.restore({
                event: int(self.counts[index, row])
                for index, event in enumerate(self.vt.events)
            })
        return board

    def _raise_in_trace_order(self, escaped, tick, live):
        """Re-resolve every escaped lane scalar, lowest trace index
        first, raising the exact error ``run_many`` would surface.

        The predicated resolver detects anomalies before mutating any
        counts column, so the pre-tick scoreboard state each lane
        replays from is simply the live matrix; each lane gets a fresh
        scoreboard built from its own column, so succeeding lanes
        cannot double-apply actions."""
        rows = sorted((int(row) for row in escaped),
                      key=self.order.__getitem__)
        for row in rows:
            _resolve_escape(
                self.compiled, self.scalar_table, int(live[row]),
                int(self.mat[tick, row]), self._board_for(row),
                self.order[row], tick,
            )
        raise MonitorError(  # pragma: no cover - detection was certain
            f"monitor {self.compiled.name!r}: internal vector anomaly at "
            f"tick {tick} did not reproduce under scalar replay"
        )

    # -- predicated escape resolution --------------------------------------
    def _step_escapes(self, escaped, tick, nxt) -> None:
        """Resolve every escaped lane of one tick inside array code.

        Literal-term matrices select the first passing rung per lane
        (argmax over the stacked rung axis); targets and scoreboard
        deltas gather from the plan.  Every anomaly check — missing
        cell, no passing rung, cross-group conflict, ``Del_evt``
        under-run — runs *before* the counts matrix is touched, so the
        replay handler sees the genuine pre-tick state.
        """
        plan = self.plan
        codes = nxt[escaped]
        # MISSING is the greatest escape code (-1); spec cells are <= -2.
        if self.check_missing and codes.max() == MISSING:
            raise _VectorAnomaly
        sidx = -2 - codes
        passing = plan.valid[sidx]
        if plan.any_chk:
            present = self.presence[escaped]
            passing &= (
                present[:, None] & plan.cmask[sidx]
            ) == plan.cpos[sidx]
        if plan.any_inp:
            col = self.mat[tick, escaped][:, None]
            passing &= (col & plan.imask[sidx]) == plan.ipos[sidx]
        first = passing.argmax(axis=1)
        if not passing[self.lane_arange[:len(first)], first].all():
            # Some lane passed no rung: an incomplete monitor.
            raise _VectorAnomaly
        if plan.has_conflicts and (passing & plan.diff[sidx, first]).any():
            # Scoreboard-dependent nondeterminism: the full scan the
            # interpreted engine runs would raise.
            raise _VectorAnomaly
        nxt[escaped] = plan.target[sidx, first]
        if plan.has_ops:
            column = self.counts[:, escaped]
            if plan.has_dels and (
                column + plan.minp[sidx, first].T < 0
            ).any():
                # Strict Del_evt under-run somewhere in the batch.
                raise _VectorAnomaly
            updated = column + plan.delta[sidx, first].T
            if self.presence is not None:
                flips = (
                    (updated[:plan.n_events] > 0)
                    != (column[:plan.n_events] > 0)
                )
                if flips.any():
                    self.presence[escaped] ^= plan.pow2 @ flips
            self.counts[:, escaped] = updated

    # -- the tick loop -----------------------------------------------------
    def run(self) -> List[MonitorResult]:
        compiled = self.compiled
        vt = self.vt
        flat = np_flat(vt)
        size = vt.size
        has_escapes = vt.escapes > 0
        scalar_escapes = self.boards is not None
        states = self.states
        mat = self.mat
        history = self.history
        index_buf = _np.empty(self.count, dtype=_np.int32)
        next_buf = _np.empty(self.count, dtype=_np.int32)
        active = self.count
        for tick in range(self.max_len):
            while active > 0 and self.sorted_lengths[active - 1] <= tick:
                active -= 1
            live = states[:active]
            index = index_buf[:active]
            _np.multiply(live, size, out=index)
            index += mat[tick, :active]
            nxt = next_buf[:active]
            _np.take(flat, index, out=nxt)
            if has_escapes and nxt.min() < 0:
                escaped = _np.nonzero(nxt < 0)[0]
                if scalar_escapes:
                    # Trace-index order: independent boards make the
                    # results order-free, but *which* lane's error
                    # surfaces first must match run_many.
                    for row in sorted((int(r) for r in escaped),
                                      key=self.order.__getitem__):
                        transition = _resolve_escape(
                            compiled, self.scalar_table, int(live[row]),
                            int(mat[tick, row]), self.boards[row],
                            self.order[row], tick,
                        )
                        nxt[row] = transition.target
                else:
                    try:
                        self._step_escapes(escaped, tick, nxt)
                    except _VectorAnomaly:
                        self._raise_in_trace_order(escaped, tick, live)
            states[:active] = nxt
            history[tick + 1, :active] = nxt
        results: List[Optional[MonitorResult]] = [None] * self.count
        final = vt.final
        # One batched scan finds every detection: the -1 fill past each
        # lane's length can never equal a state, and nonzero's
        # row-major order keeps per-lane ticks ascending.
        detections: List[List[int]] = [[] for _ in range(self.count)]
        tick_hits, lane_hits = _np.nonzero(history[1:, :] == final)
        for hit_tick, row in zip(tick_hits.tolist(), lane_hits.tolist()):
            detections[row].append(hit_tick)
        lane_states = history.T.tolist()
        for row, lane in enumerate(self.order):
            length = self.lengths[lane]
            results[lane] = MonitorResult(
                compiled.name, lane_states[row][:length + 1],
                detections[row], length,
            )
        return results


def _run_numpy(compiled, mask_arrays, scoreboards) -> List[MonitorResult]:
    count = len(mask_arrays)
    if count == 0 or max(len(m) for m in mask_arrays) == 0:
        return [
            MonitorResult(compiled.name, [compiled.initial], [], 0)
            for _ in range(count)
        ]
    return _NumpyRun(compiled, mask_arrays, scoreboards).run()
