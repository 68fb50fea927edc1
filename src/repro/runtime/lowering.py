"""The flat table IR the native stepper steps: :class:`VectorTable`.

A :class:`~repro.runtime.compiled.CompiledMonitor`'s check-free cells
flatten into one integer array ``next_state[state * 2^|Sigma| + mask]``;
the C stepper (:mod:`repro.codegen.c_gen`, run by
:mod:`repro.runtime.native`) steps that array.  This module builds it,
with the stdlib only; the planner
(:func:`~repro.runtime.engines.plan_execution`) reads the lowering to
decide whether a table goes to C.

Escape cells
------------
Cells one table load cannot resolve are *escapes*, encoded as negative
entries in the flat table:

* **check-ladder cells** — their move depends on the dynamic
  scoreboard;
* **action-carrying transitions** — they mutate the scoreboard, and
  the mutation must land in tick order;
* **missing cells** (:data:`MISSING`) — an incomplete monitor raises
  exactly as the scalar engines do.

Predicated ladders
------------------
Every ladder and action cell lowers further, at table-build time, to a
**predicated plan**: each rung's condition is normalized to
disjunctive normal form over literal atoms, and every DNF term becomes
one row of four bitmasks — positive/negative ``Chk_evt`` literals over
a packed scoreboard-*presence* word, and positive/negative input
literals over the valuation mask — plus the rung's successor state and
its scoreboard deltas (:func:`_rung_deltas`, with min-prefix floors
that expose strict ``Del_evt`` under-runs before any mutation).
Cells whose first-match dispatch :func:`prove_first_match` proves (and
every ``ladder_exclusive`` monitor) are marked ``safe`` and skip the
cross-group conflict scan.  A condition outside the literal language
keeps its cell on the scalar path (``vectorizable`` is then false,
and the table does not lower to C).

``VectorTable.escape_ratio`` reports the *static* lowering density
(cells outside the one-load fast path).
"""

from __future__ import annotations

from array import array
from itertools import combinations
from typing import List, Optional, Tuple

from repro.cache import IdentityCache
from repro.logic.expr import (
    And,
    Const,
    Not,
    Or,
    ScoreboardCheck,
    _Ref,
    scoreboard_checks_of,
    symbols_of,
)
from repro.monitor.automaton import AddEvt, DelEvt, Transition
from repro.runtime.compiled import CompiledMonitor

__all__ = ["MISSING", "VectorTable", "prove_first_match", "vector_table"]

#: Flat-table marker for a cell with no enabled transition.  Escape
#: cells with scalar payloads are encoded ``-2 - spec_index``.
MISSING = -1

#: A rung condition whose DNF exceeds this many terms stays scalar —
#: real ladder conditions are small conjunctions of ``Chk_evt`` atoms.
_MAX_RUNG_TERMS = 32

#: ``Chk_evt`` literals pack into one presence word per lane; int64
#: bounds the packable counts-matrix rows.
_MAX_PRESENCE_BITS = 63

#: Ladder cells checking more than this many distinct events are not
#: proved — the case analysis is ``2^k`` scoreboard states per cell.
MAX_PROOF_ATOMS = 10


class _SetBoard:
    """A scoreboard stub: ``Chk_evt`` presence over a fixed event set."""

    __slots__ = ("_events",)

    def __init__(self, events):
        self._events = frozenset(events)

    def contains(self, event: str) -> bool:
        return event in self._events


def prove_first_match(cell) -> bool:
    """Whether first-match dispatch of a ladder cell is provably safe.

    A full-scan ladder raises when rungs with different
    ``(target, actions)`` pass on the same tick.  When every rung's
    residue mentions only ``Chk_evt`` atoms — a pure presence test —
    enumerating the subsets of the cell's checked events covers every
    scoreboard state, so the proof is complete: ``True`` when no subset
    passes two rungs that behave differently.  A residue reading an
    input symbol, or more than :data:`MAX_PROOF_ATOMS` checked events,
    gives ``False``.
    """
    events: set = set()
    for check, _ in cell:
        if check is None:
            continue
        if symbols_of(check.expr):
            return False
        events |= scoreboard_checks_of(check.expr)
    if len(events) > MAX_PROOF_ATOMS:
        return False
    ordered = sorted(events)
    for size in range(len(ordered) + 1):
        for subset in combinations(ordered, size):
            board = _SetBoard(subset)
            behaviours = {
                (transition.target, transition.actions)
                for check, transition in cell
                if check is None or check.expr.evaluate(None, board)
            }
            if len(behaviours) > 1:
                return False
    return True


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
    :func:`prove_first_match`): their runs skip the conflict check
    entirely.
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


class VectorTable:
    """A compiled monitor lowered to one flat ``next_state`` array.

    ``flat[state * size + mask]`` is the successor state for check-free,
    action-free cells; negative entries escape (:data:`MISSING` or an
    index into ``specs``).  ``escape_ratio`` reports the static density
    of escape cells.
    """

    __slots__ = ("compiled", "size", "n_states", "final", "flat",
                 "escapes", "specs", "events", "vectorizable")

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
        cells: List[int] = []
        for state in range(compiled.n_states):
            row = compiled._table[state]
            for mask in range(size):
                cell = row[mask]
                if cell is None:
                    cells.append(MISSING)
                    escapes += 1
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
                cells.append(-2 - index)
        self.flat = array("i", cells)
        self.escapes = escapes
        self.specs = specs
        self.events = tuple(events)
        self.vectorizable = vectorizable

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
        # trivially, full-scan cells via the proof.
        safe = exclusive or len(groups) == 1 or prove_first_match(cell)
        return _EscapeSpec("ladder", cell, state,
                           plan=_PredicatedPlan(tuple(terms), safe))

    @property
    def escape_ratio(self) -> float:
        """Static lowering density: cells outside the one-gather path."""
        return self.escapes / len(self.flat) if len(self.flat) else 0.0

    def __repr__(self):
        return (f"VectorTable({self.compiled.name!r}, "
                f"states={self.n_states}, size={self.size}, "
                f"escapes={self.escapes})")


#: Memoized lowerings, keyed by monitor identity.
_TABLES = IdentityCache(limit=64)


def vector_table(compiled: CompiledMonitor) -> VectorTable:
    """The (memoized) flat lowering of ``compiled``."""
    cached = _TABLES.get(compiled)
    if cached is not None:
        return cached
    return _TABLES.put(compiled, VectorTable(compiled))
