"""Ladder hardening: prove first-match dispatch safe, collapse floors.

Check-ladder cells of a *lowered* monitor are scanned in full so that
scoreboard-dependent nondeterminism raises exactly as the interpreted
engine would (:func:`repro.runtime.compiled._resolve_ladder`).  That
full scan evaluates **every** rung's compiled check on **every** tick
the cell fires — the dominant per-tick cost on scoreboard-heavy charts.

``Tr``-derived guards make the scan provably redundant: each rung's
scoreboard residue carries the negation of the residues above it, so at
most one rung can pass for any scoreboard state.  This pass *proves*
that per cell — the residues mention only ``Chk_evt`` atoms, and
``Chk_evt`` is a pure presence test, so enumerating the subsets of the
cell's checked events is a complete case analysis — and, when every
ladder cell of the monitor is safe, rewrites it with
``ladder_exclusive=True``: first passing rung wins, later checks are
never evaluated.

Two rewrites ride on the proof:

* **floor collapse** — when the proof shows the last rung passes on
  exactly the scoreboard states where no earlier rung does (the ladder
  is *total*), its check is replaced by the unconditional ``None``
  floor: the common miss path (e.g. ``!Chk_evt(x)`` self-loops on idle
  ticks) then costs zero closure calls;
* **exclusivity marking** — cells whose rungs can simultaneously pass
  with *identical* ``(target, actions)`` are also safe: first-match
  picks the same transition the full scan would.

Monitors with any unprovable cell (a residue mentioning input symbols,
too many checked events, or a genuine runtime-nondeterminism window)
are returned unchanged — the full scan stays, preserving the
interpreted engine's error reporting.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

from repro.logic.expr import scoreboard_checks_of, symbols_of
from repro.monitor.scoreboard import Scoreboard
from repro.runtime.compiled import CompiledMonitor, map_table_cells

__all__ = ["harden_ladders", "prove_first_match"]

#: Cells checking more than this many distinct events are left alone —
#: the subset enumeration is ``2^k`` per cell.
MAX_PROOF_ATOMS = 10


class _SetBoard:
    """A scoreboard stub: ``Chk_evt`` presence over a fixed event set."""

    __slots__ = ("_events",)

    def __init__(self, events):
        self._events = frozenset(events)

    def contains(self, event: str) -> bool:
        return event in self._events


def prove_first_match(cell) -> Optional[tuple]:
    """The first-match-safe form of one ladder cell, or ``None``.

    Returns the cell (floor collapsed when total) when first-match
    scanning is provably equivalent to the full scan for *every*
    scoreboard state; ``None`` when the proof fails.

    Beyond :func:`harden_ladders`, the table lowering
    (:mod:`repro.runtime.lowering`) calls this per escape cell: a
    proven cell skips the C stepper's run-time conflict scan.
    """
    events: set = set()
    for check, _ in cell:
        if check is None:
            continue
        if symbols_of(check.expr):
            # Mask-dependent residue (non-conjunctive guard): the
            # proof would need the valuation too.  Bail out.
            return None
        events |= scoreboard_checks_of(check.expr)
    if len(events) > MAX_PROOF_ATOMS:
        return None
    ordered = sorted(events)
    total = True
    for size in range(len(ordered) + 1):
        for subset in combinations(ordered, size):
            board = _SetBoard(subset)
            passing: List[object] = [
                transition
                for check, transition in cell
                if check is None or check.expr.evaluate(None, board)
            ]
            if not passing:
                total = False
                continue
            first = passing[0]
            for transition in passing[1:]:
                if (transition.target, transition.actions) != (
                    first.target, first.actions
                ):
                    # A scoreboard state where the full scan would
                    # report nondeterminism — keep the full scan.
                    return None
    if total and cell[-1][0] is not None:
        # The ladder is total: on every scoreboard state where all
        # earlier rungs miss, *some* rung passes, and under first-match
        # that can only be the last one — so its check never decides
        # anything and collapses to the unconditional floor.
        return tuple(cell[:-1]) + ((None, cell[-1][1]),)
    return tuple(cell)


def harden_ladders(compiled: CompiledMonitor) -> CompiledMonitor:
    """Rewrite ``compiled`` for first-match ladder dispatch when safe.

    Identity when the monitor is already ``ladder_exclusive``, has no
    ladder cells, or any cell resists the proof.
    """
    if compiled.ladder_exclusive:
        return compiled
    hardened: dict = {}
    any_ladder = False
    for row in compiled._table:
        for cell in row:
            if not isinstance(cell, tuple) or id(cell) in hardened:
                continue
            any_ladder = True
            safe = prove_first_match(cell)
            if safe is None:
                return compiled
            hardened[id(cell)] = safe
    if not any_ladder:
        return compiled

    def convert(cell):
        if isinstance(cell, tuple):
            return hardened[id(cell)]
        return cell

    table = map_table_cells(compiled, convert)
    return CompiledMonitor(
        compiled.name,
        n_states=compiled.n_states,
        initial=compiled.initial,
        final=compiled.final,
        codec=compiled.codec,
        table=table,
        transitions=compiled.transitions,
        props=compiled.props,
        source=compiled.source,
        ladder_exclusive=True,
    )
