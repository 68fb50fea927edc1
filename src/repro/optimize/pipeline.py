"""The optimization pipeline: shrink automata before they hit the table.

The paper's ``Tr`` construction is ``O((n+1) * 2^|Sigma|)`` and the
compiled runtime materialises exactly that product as dense
``(state, mask)`` rows.  This pipeline sits between synthesis and the
compiled runtime:

1. **scoreboard-aware minimisation**
   (:func:`~repro.monitor.minimize.minimize_monitor`) merges
   behaviourally equivalent states — the ``n + 1`` factor;
2. **symbolic compression**
   (:func:`~repro.synthesis.symbolic.symbolic_monitor`) re-derives
   compact guards whose don't-care literals expose unused symbols;
3. **alphabet pruning** (:mod:`repro.optimize.prune`) rebuilds the
   monitor over the symbols its behaviour references — the
   ``2^|Sigma|`` factor, halved per pruned symbol;
4. **ladder hardening** (:mod:`repro.optimize.ladders`) and carrier
   transitions make the compiled table dispatch and pickle like
   direct ``tr_compiled`` output.

Every stage preserves tick-exact behaviour (detections at identical
ticks, identical scoreboard evolution); the differential suite in
``tests/optimize`` locks this down across all five execution paths.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.errors import MonitorError
from repro.logic.expr import And, Expr, Not, Or, intern_expr
from repro.monitor.automaton import Monitor, Transition
from repro.optimize.ladders import harden_ladders
from repro.optimize.prune import prune_compiled, prune_monitor
from repro.runtime.compiled import CompiledMonitor, compile_monitor

__all__ = [
    "OptimizationResult",
    "as_optimized",
    "optimize_compiled",
    "optimize_monitor",
]


class OptimizationResult:
    """What the pipeline produced, with before/after size accounting.

    ``monitor`` is the optimized *interpreted* form (minimised +
    pruned), still runnable on the reference engine and usable for
    code generation; ``compiled`` is its dispatch table.  ``stats``
    records states and ``rows x 2^|Sigma|`` cells before and after.
    """

    __slots__ = ("monitor", "compiled", "stats")

    def __init__(self, monitor: Monitor, compiled: CompiledMonitor,
                 stats: Dict[str, int]):
        self.monitor = monitor
        self.compiled = compiled
        self.stats = stats

    @property
    def cell_reduction(self) -> float:
        """Baseline cells / optimized cells (>= 1.0)."""
        cells = self.stats["optimized_cells"]
        return self.stats["baseline_cells"] / cells if cells else 1.0

    def __repr__(self):
        return (
            f"OptimizationResult({self.compiled.name!r}, "
            f"states {self.stats['baseline_states']}->"
            f"{self.stats['optimized_states']}, "
            f"cells {self.stats['baseline_cells']}->"
            f"{self.stats['optimized_cells']} "
            f"({self.cell_reduction:.1f}x))"
        )


def optimize_monitor(
    monitor: Monitor,
    minimize: bool = True,
    prune: bool = True,
    name: Optional[str] = None,
) -> OptimizationResult:
    """Run the full pipeline on an interpreted monitor.

    Stages toggle independently (each is behaviour-preserving on its
    own).  A symbolic guard re-compression always runs in between:
    it merges the per-minterm transition fan into shared edges, and
    its Quine–McCluskey pass drops don't-care literals, exposing
    unused symbols to the pruning scan.  Monitors whose guards are not
    ``Tr`` minterm output skip the compression gracefully.
    """
    from repro.errors import SynthesisError
    from repro.synthesis.symbolic import symbolic_monitor

    baseline_states = monitor.n_states
    baseline_cells = baseline_states * (1 << len(monitor.alphabet))
    target_name = name or monitor.name
    optimized = monitor
    if minimize:
        optimized = minimize_monitor_safely(optimized)
    if prune:
        # Pre-prune declared-but-never-referenced symbols so the
        # guards' minterms span exactly the remaining alphabet (the
        # shape the symbolic compressor expects).
        optimized = prune_monitor(optimized)
    try:
        optimized = symbolic_monitor(optimized, name=optimized.name)
    except SynthesisError:
        # Hand-built guards need not be Tr minterm output; later
        # stages then work off the guards exactly as written.
        pass
    if prune:
        optimized = prune_monitor(optimized)
    if optimized.name != target_name:
        optimized = Monitor(
            target_name, n_states=optimized.n_states,
            initial=optimized.initial, final=optimized.final,
            transitions=optimized.transitions,
            alphabet=optimized.alphabet, props=optimized.props,
        )
    optimized = _intern_guards(optimized)
    compiled = _carrier_transitions(harden_ladders(compile_monitor(optimized)))
    stats = {
        "baseline_states": baseline_states,
        "baseline_cells": baseline_cells,
        "optimized_states": compiled.n_states,
        "optimized_alphabet": len(compiled.codec),
        "optimized_cells": compiled.table_cells(),
    }
    return OptimizationResult(optimized, compiled, stats)


def _node_count(expr: Expr) -> int:
    count = 1
    for child in expr.children():
        count += _node_count(child)
    return count


def _and_term(literals) -> Expr:
    return literals[0] if len(literals) == 1 else And(tuple(literals))


def _factor_once(expr: Expr) -> Expr:
    """One bottom-up factoring sweep (see :func:`_factor_guard`)."""
    if isinstance(expr, Not):
        return Not(_factor_once(expr.operand))
    if isinstance(expr, And):
        return And(tuple(_factor_once(arg) for arg in expr.args))
    if not isinstance(expr, Or) or len(expr.args) < 2:
        return expr
    args = tuple(_factor_once(arg) for arg in expr.args)
    terms = [arg.args if isinstance(arg, And) else (arg,) for arg in args]
    sets = [frozenset(term) for term in terms]
    # Literals common to *every* term hoist out wholesale.
    common = tuple(
        literal for literal in terms[0]
        if all(literal in term for term in sets[1:])
    )
    if common:
        common_set = frozenset(common)
        residues = []
        for term in terms:
            left = tuple(lit for lit in term if lit not in common_set)
            if not left:
                # A term equal to the common part absorbs the sum.
                return And(common).simplify()
            residues.append(_and_term(left))
        return And(common + (Or(tuple(residues)),)).simplify()
    # Otherwise group on the most shared literal (first-seen breaks
    # ties, so the rewrite is deterministic); the fixpoint loop in
    # _factor_guard re-factors the grouped remainder.
    order: list = []
    counts: dict = {}
    for term in terms:
        for literal in term:
            if literal not in counts:
                counts[literal] = 0
                order.append(literal)
            counts[literal] += 1
    pivot = None
    for literal in order:
        if counts[literal] >= 2 and (
            pivot is None or counts[literal] > counts[pivot]
        ):
            pivot = literal
    if pivot is None:
        return Or(args)
    grouped = []
    others = []
    bare_pivot = False
    for term in terms:
        if pivot in term:
            # A bare pivot term absorbs every pivot & rest term; the
            # scan still continues so non-pivot terms are kept.
            if len(term) == 1:
                bare_pivot = True
            elif not bare_pivot:
                grouped.append(_and_term(
                    tuple(lit for lit in term if lit != pivot)
                ))
        else:
            others.append(_and_term(term))
    head = pivot if bare_pivot else And((pivot, Or(tuple(grouped))))
    if not others:
        return head.simplify() if bare_pivot else head
    return Or((head,) + tuple(others))


def _factor_guard(expr: Expr) -> Expr:
    """Refactor a sum-of-products guard into a smaller equivalent tree.

    Quine–McCluskey emits flat sum-of-products; terms of one guard
    usually share most of their literals (``(a&x)|(a&y) -> a&(x|y)``,
    and products of sums re-emerge from repeated grouping).  Every
    rewrite is the distribution or absorption law run backwards —
    evaluation is unchanged — and the sweep repeats only while the
    node count strictly shrinks, so factoring terminates and never
    grows a guard.
    """
    best = expr
    best_count = _node_count(expr)
    while True:
        candidate = _factor_once(best)
        count = _node_count(candidate)
        if count >= best_count:
            return best
        best, best_count = candidate, count


def _intern_guards(monitor: Monitor) -> Monitor:
    """Factor and hash-cons every guard.

    Factoring (:func:`_factor_guard`) is evaluation-preserving;
    interning makes equal subtrees the *same* object, so equality
    checks short-circuit on identity and — because pickle memoizes by
    object identity — the serialized monitor stores one copy per
    distinct subtree.  Minimisation and symbolic recompression
    otherwise leave hundreds of structurally equal but distinct nodes
    behind.
    """
    cache: dict = {}
    transitions = tuple(
        Transition(t.source, intern_expr(_factor_guard(t.guard), cache),
                   t.actions, t.target)
        for t in monitor.transitions
    )
    return Monitor(
        monitor.name, n_states=monitor.n_states, initial=monitor.initial,
        final=monitor.final, transitions=transitions,
        alphabet=monitor.alphabet, props=monitor.props,
    )


def _carrier_transitions(compiled: CompiledMonitor) -> CompiledMonitor:
    """Replace full guards with carrier guards in the compiled artifact.

    A dispatch table never evaluates its transitions' guards — the
    valuation part is baked into the cell indexing and only the
    scoreboard residues survive as compiled checks — yet
    ``compile_monitor`` keeps the interpreted monitor's full guard
    expressions on every :class:`Transition`, and they dominate the
    serialized payload of an optimized monitor.  This rewrites each
    table-referenced transition to a *carrier* (guard = its scoreboard
    residue, mirroring ``tr_compiled`` direct emission), merging
    transitions that become indistinguishable.  The interpreted
    ``OptimizationResult.monitor`` keeps the full guards — it is the
    form that needs them.
    """
    from repro.runtime.compiled import _split_guard, map_table_cells

    carriers: Dict[Transition, Transition] = {}
    mapped: Dict[int, Transition] = {}

    def carrier(transition: Transition) -> Transition:
        cached = mapped.get(id(transition))
        if cached is None:
            _, residue = _split_guard(transition.guard)
            slim = Transition(
                transition.source, residue, transition.actions,
                transition.target,
            )
            cached = carriers.setdefault(slim, slim)
            mapped[id(transition)] = cached
        return cached

    cells: Dict[int, tuple] = {}

    def convert(cell):
        if cell is None:
            return None
        if isinstance(cell, tuple):
            cached = cells.get(id(cell))
            if cached is None:
                cached = tuple(
                    (check, carrier(transition)) for check, transition in cell
                )
                cells[id(cell)] = cached
            return cached
        return carrier(cell)

    table = map_table_cells(compiled, convert)
    transitions = tuple(
        carrier(transition) for transition in compiled.transitions
    )
    # Dedup while keeping first-seen order.
    transitions = tuple(dict.fromkeys(transitions))
    return CompiledMonitor(
        compiled.name,
        n_states=compiled.n_states,
        initial=compiled.initial,
        final=compiled.final,
        codec=compiled.codec,
        table=table,
        transitions=transitions,
        props=compiled.props,
        source=compiled.source,
        ladder_exclusive=compiled.ladder_exclusive,
    )


def minimize_monitor_safely(monitor: Monitor) -> Monitor:
    """Minimise, keeping the input when minimisation cannot apply.

    The pipeline optimises monitors it did not build (hand-written,
    incomplete, or with guards outside the synthesis fragment);
    minimisation requiring a total deterministic move function is then
    a per-monitor property, not a pipeline failure.
    """
    from repro.monitor.minimize import minimize_monitor

    try:
        minimized = minimize_monitor(monitor)
    except MonitorError:
        return monitor
    if minimized.n_states >= monitor.n_states:
        # Nothing merged: keep the original's (possibly compact)
        # guard structure instead of the rebuilt minterm fan.
        return monitor
    return minimized


def optimize_compiled(
    compiled: CompiledMonitor,
    prune: bool = True,
) -> CompiledMonitor:
    """Table-only optimization for an already-compiled monitor.

    ``tr_compiled`` output carries no input guards to scan, so pruning
    detects unused symbols from the table itself (cells invariant
    under a bit flip); state minimisation needs the interpreted form
    and is not attempted.
    """
    optimized = harden_ladders(compiled)
    if prune:
        optimized = prune_compiled(optimized)
    return optimized


def as_optimized(
    monitor: Union[Monitor, CompiledMonitor]
) -> CompiledMonitor:
    """Coerce either monitor form to an optimized compiled monitor."""
    if isinstance(monitor, CompiledMonitor):
        return optimize_compiled(monitor)
    return optimize_monitor(monitor).compiled
