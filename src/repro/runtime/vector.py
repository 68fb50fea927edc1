"""Trace-parallel vectorized batch execution over flat integer tables.

:func:`~repro.runtime.compiled.run_many` steps one trace element per
Python iteration — fast per *monitor*, but the interpreter overhead is
paid per lane-tick.  This kernel flattens a
:class:`~repro.runtime.compiled.CompiledMonitor`'s check-free cells
into a single integer array ``next_state[state * 2^|Sigma| + mask]``
and advances **every trace of a batch in lock-step with one indexed
gather per tick** (NumPy fancy indexing), so the per-tick interpreter
cost is amortized over the whole batch width.

Escape-mask design
------------------
Cells the gather cannot resolve directly are *escapes*, encoded as
negative entries in the flat table:

* **check-ladder cells** — their move depends on the dynamic
  scoreboard;
* **action-carrying transitions** — they mutate the scoreboard, and
  the mutation must land in tick order;
* **missing cells** — an incomplete monitor raises exactly as the
  scalar engines do.

Predicated ladders
------------------
Every ladder and action cell lowers further, at table-build time, to a
**predicated plan**: each rung's condition is normalized to
disjunctive normal form over literal atoms, and every DNF term becomes
one row of four bitmasks — positive/negative ``Chk_evt`` literals over
a packed scoreboard-*presence* word, and positive/negative input
literals over the valuation mask.  At run time the escaped lanes of a
tick resolve **all at once**: the per-lane presence words and masks
are tested against the stacked ``(lane, rung)`` literal matrices, the
first passing rung per lane falls out of one ``argmax``, successor
states gather from a target matrix, and ``Add_evt``/``Del_evt``
scoreboard effects apply to the ``counts[event, lane]`` matrix as one
fancy-indexed delta add.  A companion *min-prefix* matrix detects
strict ``Del_evt`` under-runs, and a rung-difference matrix detects
the full-scan nondeterminism the scalar engines report — cells whose
first-match safety :func:`~repro.optimize.ladders.prove_first_match`
proves (and all ``ladder_exclusive`` monitors) skip that check
entirely.  Every anomaly check runs *before* any mutation, so a lane
that must raise **replays** through the scalar resolver on a
scoreboard reconstructed from its pre-tick counts column: the raised
error — message, trace-index order — is byte-identical to
``run_many``'s.  Caller-injected scoreboards are real objects with
observable mutations; those runs keep the scalar per-lane escape
path.  The differential suite
(``tests/runtime/test_vector_differential.py``) locks all of this
down, including a seeded 100%-ladder-density stress generator.

``VectorTable.escape_ratio`` reports the *static* lowering density
(cells outside the one-gather fast path); ``residual_ratio`` reports
what is left **after** predication — the cells whose lanes still drop
to per-lane scalar resolution (missing cells, or everything when some
cell resists predication).  The batch planner and the vector bench
read the residual, not the raw density.

NumPy is an **optional** dependency: when it is absent (or the
``REPRO_NO_NUMPY`` environment variable is set) there is no gather to
run, and every batch steps through the scalar
:func:`~repro.runtime.compiled.run_many_encoded` loop instead —
identical results, so ``engine="vector"`` stays valid everywhere.
"""

from __future__ import annotations

import os
from array import array
from typing import List, Optional, Sequence, Tuple, Union

from repro.cache import IdentityCache
from repro.errors import MonitorError
from repro.logic.expr import And, Const, Not, Or, ScoreboardCheck, _Ref
from repro.monitor.automaton import AddEvt, DelEvt, Monitor, Transition
from repro.monitor.engine import MonitorResult
from repro.monitor.scoreboard import Scoreboard
from repro.optimize.ladders import prove_first_match
from repro.runtime.compiled import (
    CompiledEngine,
    CompiledMonitor,
    _resolve_ladder,
    _run_many_encoded,
    as_compiled,
    check_mask_domain,
)
from repro.semantics.run import Trace

__all__ = [
    "MISSING",
    "VectorEngine",
    "VectorTable",
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

#: Flat-table marker for a cell with no enabled transition.  Escape
#: cells with scalar payloads are encoded ``-2 - spec_index``.
MISSING = -1

#: A rung condition whose DNF exceeds this many terms stays scalar —
#: real ladder conditions are small conjunctions of ``Chk_evt`` atoms.
_MAX_RUNG_TERMS = 32

#: ``Chk_evt`` literals pack into one presence word per lane; int64
#: bounds the packable counts-matrix rows.
_MAX_PRESENCE_BITS = 63


class _PredicatedPlan:
    """Predicated lowering of one escape cell: flat rung-*term* rows.

    Each rung condition's DNF term is one row
    ``(chk_pos, chk_neg, inp_pos, inp_neg, target, deltas, group)``:

    * ``chk_pos``/``chk_neg`` — presence-word literals over the
      table's counts-matrix rows (``Chk_evt`` and its negation);
    * ``inp_pos``/``inp_neg`` — valuation-mask literals (input refs);
    * ``target`` — the rung's successor state;
    * ``deltas`` — the rung's scoreboard effect,
      ``(counts_row, total, floor)`` per touched event (see
      :func:`_rung_deltas`);
    * ``group`` — rung behaviour class: terms with equal
      ``(target, actions)`` share a group, and only cross-group double
      passes are the full-scan nondeterminism the scalar engine
      reports.

    ``safe`` marks cells where first-match dispatch is provably the
    full scan's answer (``ladder_exclusive`` monitors by construction,
    single-group cells trivially, full-scan cells via
    :func:`~repro.optimize.ladders.prove_first_match`): their runs
    skip the conflict matrices entirely.
    """

    __slots__ = ("terms", "safe")

    def __init__(self, terms: Tuple[tuple, ...], safe: bool):
        self.terms = terms
        self.safe = safe


class _EscapeSpec:
    """Scalar payload of one escape cell.

    ``kind`` is ``"step"`` (unconditional transition with actions),
    ``"ladder"``, or ``"scalar"`` (a cell whose condition falls
    outside the predicated guard language — the whole monitor then
    resolves escapes per lane).  ``plan`` is the
    :class:`_PredicatedPlan`, or ``None`` for scalar cells.
    """

    __slots__ = ("kind", "cell", "state", "plan")

    def __init__(self, kind, cell, state, plan=None):
        self.kind = kind
        self.cell = cell
        self.state = state
        self.plan = plan


def _rung_deltas(transition: Transition, event_row) -> Tuple:
    """Net scoreboard effect of one transition's action list.

    ``(counts_row, total, floor)`` per touched event: ``total`` is the
    net delta over the whole list, ``floor`` the minimum running total
    any ``Del_evt`` step reaches during sequential application — a
    lane under-runs (the strict-scoreboard error) iff
    ``counts + floor < 0``, which the kernels test *before* applying
    ``total``.
    """
    totals: dict = {}
    floors: dict = {}
    for action in transition.actions:
        if isinstance(action, AddEvt):
            step = 1
        elif isinstance(action, DelEvt):
            step = -1
        else:  # pragma: no cover - no other Action kinds exist today
            raise LookupError(f"unsupported action {action!r}")
        for event in action.events:
            row = event_row(event)
            running = totals.get(row, 0) + step
            totals[row] = running
            if step < 0 and running < floors.get(row, 0):
                floors[row] = running
    return tuple(
        (row, total, floors.get(row, 0))
        for row, total in totals.items()
        if total or floors.get(row, 0)
    )


def _literal_terms(expr, codec, event_row, negate=False) -> Optional[list]:
    """Disjunctive normal form of a rung condition over literal atoms.

    Returns ``(chk_pos, chk_neg, inp_pos, inp_neg)`` bitmask terms —
    the condition holds iff some term's positive literals all hold and
    none of its negative ones do; ``[]`` is constant false.  Returns
    ``None`` when the condition falls outside the literal language or
    its DNF exceeds :data:`_MAX_RUNG_TERMS` — the caller then keeps
    the scalar escape path.
    """
    if isinstance(expr, Const):
        return [(0, 0, 0, 0)] if bool(expr.value) ^ negate else []
    if isinstance(expr, _Ref):
        bit = codec.bit_of.get(expr.name, 0)
        if not bit:
            # Symbol outside the codec: constantly absent.
            return [(0, 0, 0, 0)] if negate else []
        return [(0, 0, 0, bit)] if negate else [(0, 0, bit, 0)]
    if isinstance(expr, ScoreboardCheck):
        row = event_row(expr.event)
        if row >= _MAX_PRESENCE_BITS:
            return None
        bit = 1 << row
        return [(0, bit, 0, 0)] if negate else [(bit, 0, 0, 0)]
    if isinstance(expr, Not):
        return _literal_terms(expr.operand, codec, event_row, not negate)
    if isinstance(expr, (And, Or)):
        parts = [
            _literal_terms(arg, codec, event_row, negate)
            for arg in expr.args
        ]
        if any(part is None for part in parts):
            return None
        if not (isinstance(expr, And) ^ negate):
            # Disjunction (Or, or De Morgan'd And): concatenate.
            union = [term for part in parts for term in part]
            union = list(dict.fromkeys(union))
            return None if len(union) > _MAX_RUNG_TERMS else union
        # Conjunction: cross product, contradictory terms dropped.
        terms = [(0, 0, 0, 0)]
        for part in parts:
            merged = []
            for cp, cn, ip, im in terms:
                for pcp, pcn, pip, pim in part:
                    ncp, ncn = cp | pcp, cn | pcn
                    nip, nim = ip | pip, im | pim
                    if ncp & ncn or nip & nim:
                        continue
                    merged.append((ncp, ncn, nip, nim))
            merged = list(dict.fromkeys(merged))
            if len(merged) > _MAX_RUNG_TERMS:
                return None
            terms = merged
        return terms
    return None


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


class VectorTable:
    """A compiled monitor lowered to one flat ``next_state`` array.

    ``flat[state * size + mask]`` is the successor state for check-free,
    action-free cells; negative entries escape (:data:`MISSING` or an
    index into ``specs``).  ``escape_ratio`` reports the static density
    of escape cells; ``residual_ratio`` the post-predication residual —
    the batch planner's signal for when the vector kernel stops paying
    (see DESIGN.md).
    """

    __slots__ = ("compiled", "size", "n_states", "final", "flat",
                 "escapes", "residual", "specs", "events",
                 "vectorizable", "_np_flat", "_np_plan")

    def __init__(self, compiled: CompiledMonitor):
        self.compiled = compiled
        self.size = size = compiled.codec.size
        self.n_states = compiled.n_states
        self.final = compiled.final
        codec = compiled.codec
        exclusive = compiled.ladder_exclusive
        events: List[str] = []
        rows: dict = {}

        def event_row(event: str) -> int:
            row = rows.get(event)
            if row is None:
                row = rows[event] = len(events)
                events.append(event)
            return row

        specs: List[_EscapeSpec] = []
        spec_of: dict = {}
        vectorizable = True
        escapes = 0
        residual = 0
        cells: List[int] = []
        for state in range(compiled.n_states):
            row = compiled._table[state]
            for mask in range(size):
                cell = row[mask]
                if cell is None:
                    cells.append(MISSING)
                    escapes += 1
                    residual += 1
                    continue
                if type(cell) is not tuple and not cell.actions:
                    cells.append(cell.target)
                    continue
                escapes += 1
                key = id(cell)
                index = spec_of.get(key)
                if index is None:
                    index = len(specs)
                    try:
                        specs.append(self._lower_escape(
                            cell, state, codec, event_row, exclusive
                        ))
                    except LookupError:
                        vectorizable = False
                        specs.append(_EscapeSpec("scalar", cell, state))
                    spec_of[key] = index
                if specs[index].plan is None:
                    residual += 1
                cells.append(-2 - index)
        self.flat = array("i", cells)
        self.escapes = escapes
        self.residual = residual
        self.specs = specs
        self.events = tuple(events)
        self.vectorizable = vectorizable
        self._np_flat = None
        self._np_plan = None

    @staticmethod
    def _lower_escape(cell, state, codec, event_row,
                      exclusive) -> _EscapeSpec:
        if type(cell) is not tuple:
            term = (0, 0, 0, 0, cell.target,
                    _rung_deltas(cell, event_row), 0)
            return _EscapeSpec("step", cell, state,
                               plan=_PredicatedPlan((term,), safe=True))
        groups: dict = {}
        terms: List[tuple] = []
        for check, transition in cell:
            key = (transition.target, transition.actions)
            group = groups.setdefault(key, len(groups))
            deltas = _rung_deltas(transition, event_row)
            if check is None:
                literals = [(0, 0, 0, 0)]
            else:
                literals = _literal_terms(check.expr, codec, event_row)
                if literals is None:
                    raise LookupError(
                        f"rung condition {check!r} outside the "
                        f"predicated guard language"
                    )
            # Stored per term: masked-compare form — ``pos`` plus the
            # combined ``pos|neg`` mask per literal family (the term
            # holds iff ``word & mask == pos``).
            terms.extend(
                (cp, cp | cn, ip, ip | im, transition.target, deltas,
                 group)
                for cp, cn, ip, im in literals
            )
        # First-match safety lets the run skip conflict detection:
        # exclusive ladders by construction, single-behaviour cells
        # trivially, full-scan cells via the hardening proof.
        safe = (exclusive or len(groups) == 1
                or prove_first_match(cell) is not None)
        return _EscapeSpec("ladder", cell, state,
                           plan=_PredicatedPlan(tuple(terms), safe))

    @property
    def escape_ratio(self) -> float:
        """Static lowering density: cells outside the one-gather path."""
        return self.escapes / len(self.flat) if len(self.flat) else 0.0

    @property
    def residual_ratio(self) -> float:
        """Post-predication residual: the cell fraction whose lanes
        still leave array code for per-lane scalar resolution.

        Predicated ladder/step cells stay inside the kernel, so only
        missing cells (which raise via scalar replay) count — unless
        some cell resisted predication, in which case every escape
        lane runs the scalar board path and the residual is the full
        escape density.
        """
        if not self.vectorizable:
            return self.escape_ratio
        return self.residual / len(self.flat) if len(self.flat) else 0.0

    def np_flat(self):
        """The flat table as a NumPy array (built once, shared)."""
        if self._np_flat is None:
            self._np_flat = _np.asarray(self.flat, dtype=_np.int32)
        return self._np_flat

    def np_plan(self) -> _NpPlan:
        """The stacked predicated-plan matrices (built once, shared)."""
        if self._np_plan is None:
            self._np_plan = _NpPlan(self.specs, len(self.events))
        return self._np_plan

    def __repr__(self):
        return (f"VectorTable({self.compiled.name!r}, "
                f"states={self.n_states}, size={self.size}, "
                f"escapes={self.escapes}, residual={self.residual})")


#: Memoized lowerings, keyed by monitor identity.
_TABLES = IdentityCache(limit=64)


def vector_table(compiled: CompiledMonitor) -> VectorTable:
    """The (memoized) flat lowering of ``compiled``."""
    cached = _TABLES.get(compiled)
    if cached is not None:
        return cached
    return _TABLES.put(compiled, VectorTable(compiled))


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
            self.vt.np_plan()
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
        flat = vt.np_flat()
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


class VectorEngine(CompiledEngine):
    """A compiled engine with a chunked flat-table fast path.

    Scalar ``step``/``feed``/two-phase semantics are inherited
    unchanged from :class:`CompiledEngine`; :meth:`feed_masks` consumes
    a pre-encoded chunk of ticks in one tight loop over the flat
    integer table — the streaming checker's vector mode batches its
    input into chunks and pushes them through here, skipping three
    Python method calls per tick per monitor.
    """

    def __init__(self, monitor, scoreboard: Optional[Scoreboard] = None,
                 record_history: bool = True):
        super().__init__(monitor, scoreboard=scoreboard,
                         record_history=record_history)
        self._vt = vector_table(self._compiled)

    def feed_masks(self, masks: Sequence[int]) -> List[int]:
        """Consume one chunk of encoded ticks; return detection offsets.

        Offsets are relative to the first tick of the chunk.  State,
        tick count and scoreboard evolve exactly as ``len(masks)``
        ``step`` calls would — including on failure: an escape that
        cannot resolve raises the same error ``step`` raises, with the
        engine left exactly where per-tick stepping would have left it
        (state and tick at the failing element, earlier elements
        committed).  Per-tick history recording is not supported
        (streaming engines run ``record_history=False``).
        """
        if self._record_history:
            raise MonitorError(
                "feed_masks is the streaming fast path; construct the "
                "engine with record_history=False (step() records "
                "history tick by tick)"
            )
        vt = self._vt
        flat = vt.flat
        size = vt.size
        final = vt.final
        compiled = self._compiled
        scalar_table = self._table
        scoreboard = self._scoreboard
        exclusive = self._exclusive
        state = self._state
        detections: List[int] = []
        for offset, mask in enumerate(masks):
            nxt = flat[state * size + mask]
            if nxt < 0:
                try:
                    cell = scalar_table[state][mask]
                    if type(cell) is tuple:
                        cell = _resolve_ladder(
                            cell, mask, scoreboard, exclusive,
                            compiled.name, state,
                        )
                    if cell is None:
                        raise MonitorError(
                            f"monitor {compiled.name!r}: no transition "
                            f"enabled in state {state} on input "
                            f"{compiled.codec.decode(mask)!r} "
                            f"(scoreboard {scoreboard!r})"
                        )
                    for action in cell.actions:
                        action.apply(scoreboard)
                except Exception:
                    # Leave the engine where step-by-step stepping
                    # would have: at the failing tick.
                    self._state = state
                    self._tick += offset
                    raise
                nxt = cell.target
            state = nxt
            if state == final:
                detections.append(offset)
        self._state = state
        self._tick += len(masks)
        return detections
