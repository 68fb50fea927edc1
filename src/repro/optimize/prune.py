"""Alphabet pruning: collapse table width from ``2^|Sigma|`` to ``2^|used|``.

The ``Tr`` construction enumerates every valuation of the *declared*
restricted alphabet, so a chart that declares symbols its guards never
consult pays for them exponentially: each irrelevant symbol doubles
every dispatch row.  Pruning rebuilds the monitor over the symbols its
behaviour actually depends on, **before** the
:class:`~repro.logic.codec.AlphabetCodec` fixes the table ordering.

Two detection strategies, one per monitor form:

* :func:`prune_monitor` scans an interpreted monitor's guards for the
  symbols they reference (``symbols_of``).  Dense ``Tr`` output labels
  every edge with a *complete* minterm, which mentions every symbol —
  run :func:`~repro.synthesis.symbolic.symbolic_monitor` (or
  minimisation) first so don't-care literals have been dropped.
* :func:`prune_compiled` works directly on a compiled dispatch table:
  a symbol is unused iff flipping its bit never changes any cell *and*
  no check-ladder residue expression mentions it.  This needs no guard
  expressions at all, so it applies to ``tr_compiled`` output whose
  carrier transitions only record scoreboard conditions.

Both rebuilds are observationally identical to the original: encoding
projects trace valuations onto the monitor's alphabet, so a symbol the
table never distinguishes cannot influence any verdict.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.logic.codec import AlphabetCodec
from repro.logic.expr import symbols_of
from repro.monitor.automaton import Monitor
from repro.runtime.compiled import CompiledCheck, CompiledMonitor

__all__ = [
    "prune_compiled",
    "prune_monitor",
    "used_symbols",
    "used_symbols_compiled",
]


def used_symbols(monitor: Monitor) -> FrozenSet[str]:
    """The alphabet symbols the monitor's guards actually reference."""
    used: set = set()
    for transition in monitor.transitions:
        used |= symbols_of(transition.guard)
    return frozenset(used) & monitor.alphabet


def prune_monitor(monitor: Monitor) -> Monitor:
    """Rebuild ``monitor`` over the symbols its guards reference.

    Identity when every declared symbol is used.  Guards are untouched
    — they only mention surviving symbols by construction — so the
    result steps identically; only the valuation space (and therefore
    any codec built from it) shrinks.
    """
    used = used_symbols(monitor)
    if used == monitor.alphabet:
        return monitor
    return Monitor(
        monitor.name,
        n_states=monitor.n_states,
        initial=monitor.initial,
        final=monitor.final,
        transitions=monitor.transitions,
        alphabet=used,
        props=monitor.props & used,
    )


def used_symbols_compiled(compiled: CompiledMonitor) -> FrozenSet[str]:
    """Symbols the dispatch table (or a check residue) depends on.

    A symbol is *used* when flipping its bit changes some cell, or when
    a compiled check expression references it (mask-dependent residues
    evaluate against the codec ordering at run time, so their symbols
    must survive even if the cell objects coincide).
    """
    codec = compiled.codec
    used: set = set()
    for row in compiled._table:
        for cell in row:
            if isinstance(cell, tuple):
                for check, _ in cell:
                    if check is not None:
                        used |= set(symbols_of(check.expr))
    for index, symbol in enumerate(codec.symbols):
        if symbol in used:
            continue
        bit = 1 << index
        for row in compiled._table:
            if any(
                row[mask] != row[mask | bit]
                for mask in range(codec.size)
                if not mask & bit
            ):
                used.add(symbol)
                break
    return frozenset(used) & compiled.alphabet


def prune_compiled(compiled: CompiledMonitor) -> CompiledMonitor:
    """Rebuild a compiled monitor over its used symbols.

    Selects the sub-table where every pruned symbol's bit is zero
    (legitimate because those bits provably never change a cell) and
    recompiles check closures against the narrower codec, so
    mask-dependent residues keep reading the right bits.  Identity
    when nothing prunes.
    """
    codec = compiled.codec
    used = used_symbols_compiled(compiled)
    if used == compiled.alphabet:
        return compiled
    new_codec = AlphabetCodec(used)
    # New mask -> old mask: surviving bits map across, pruned bits 0.
    old_bit_of = {
        symbol: 1 << index for index, symbol in enumerate(codec.symbols)
    }
    mask_map: List[int] = []
    for new_mask in new_codec.all_masks():
        old_mask = 0
        for index, symbol in enumerate(new_codec.symbols):
            if new_mask >> index & 1:
                old_mask |= old_bit_of[symbol]
        mask_map.append(old_mask)

    recompiled: Dict[int, CompiledCheck] = {}
    converted: Dict[int, tuple] = {}

    def convert(cell):
        if not isinstance(cell, tuple):
            return cell
        # Interned input cells convert to interned output cells.
        cached = converted.get(id(cell))
        if cached is not None:
            return cached
        rungs = []
        for check, transition in cell:
            if check is not None:
                replacement = recompiled.get(id(check))
                if replacement is None:
                    replacement = CompiledCheck(check.expr, new_codec)
                    recompiled[id(check)] = replacement
                check = replacement
            rungs.append((check, transition))
        result = tuple(rungs)
        converted[id(cell)] = result
        return result

    table: List[List[object]] = [
        [convert(row[old_mask]) for old_mask in mask_map]
        for row in compiled._table
    ]
    return CompiledMonitor(
        compiled.name,
        n_states=compiled.n_states,
        initial=compiled.initial,
        final=compiled.final,
        codec=new_codec,
        table=table,
        transitions=compiled.transitions,
        props=compiled.props & used,
        source=compiled.source,
        ladder_exclusive=compiled.ladder_exclusive,
    )
