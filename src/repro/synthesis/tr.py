"""The paper's translation algorithm ``Tr``: SCESC -> monitor.

Follows Section 5's ``main`` routine:

1. ``Q = {0, ..., n}`` for a chart with ``n`` grid lines; ``s0 = 0``,
   ``sf = n``;
2. ``P = extract_pattern(C)``;
3. ``delta = compute_transition_func(P, Sigma)`` — the KMP-style table,
   enumerated per concrete valuation of the restricted alphabet;
4. ``add_causality_check(ex, ey)`` for every causality arrow — the
   ``Add_evt`` / ``Chk_evt`` / ``Del_evt`` scoreboard discipline.

:func:`tr` returns a deterministic, complete
:class:`~repro.monitor.automaton.Monitor` whose transition guards are
*minterms* over the restricted alphabet (optionally conjoined with
``Chk_evt`` conditions), built by :mod:`repro.synthesis.dense`.
:mod:`repro.synthesis.symbolic` compresses those minterm fans into the
compact figure-style guards; :func:`tr_compiled` fills the same table
per satisfaction signature, straight into the compiled runtime.

Complexity is the paper's: ``O((n+1) * 2^|Sigma|)`` table entries — the
restricted alphabet (symbols actually mentioned by the chart) keeps
this tractable for protocol-sized specifications.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro._lazy import lazy_exports
from repro.cesc.ast import SCESC
from repro.errors import SynthesisError
from repro.logic.expr import And, Expr, Not, ScoreboardCheck, all_of
from repro.monitor.automaton import Monitor, Transition
from repro.synthesis.causality import actions_for_move
from repro.synthesis.pattern import FlatPattern, extract_pattern
from repro.synthesis.transition import pattern_compatibility, signature_ladder

__all__ = [
    "minterm_expr",
    "check_conjunction",
    "synthesize_monitor",
    "synthesize_compiled",
    "tr",
    "tr_compiled",
]

__getattr__, __dir__ = lazy_exports(__name__, dict.fromkeys(
    ("minterm_expr", "synthesize_monitor"), "repro.synthesis.dense"))

_MAX_ALPHABET = 16


def checked_pattern(
    pattern: FlatPattern,
    extra_checks: Optional[Mapping[int, FrozenSet[str]]] = None,
) -> FlatPattern:
    """``pattern`` under the alphabet cap, cross-domain checks folded in."""
    if len(pattern.alphabet) > _MAX_ALPHABET:
        raise SynthesisError(
            f"pattern {pattern.name!r} has {len(pattern.alphabet)} symbols; "
            f"the valuation enumeration (2^|Sigma|) is capped at "
            f"2^{_MAX_ALPHABET} — split the chart or reduce its alphabet"
        )
    if extra_checks:
        pattern = _with_extra_checks(pattern, extra_checks)
    return pattern


def check_conjunction(events: FrozenSet[str]) -> Expr:
    """``Chk_evt(e1) & ... & Chk_evt(ek)`` (``TRUE`` when empty)."""
    return all_of(ScoreboardCheck(e) for e in sorted(events))


def _with_extra_checks(
    pattern: FlatPattern, extra_checks: Mapping[int, FrozenSet[str]]
) -> FlatPattern:
    """Fold cross-domain check obligations into the pattern's arrow view.

    Implemented by appending synthetic arrows whose cause tick equals
    the effect tick of the obligation: ``check_events_at`` then reports
    them, while ``cause_events_at`` is kept clean by registering the
    synthetic arrow with a cause tick of the same position but a cause
    event never added locally — simplest is to rebuild via a wrapper.
    """
    from repro.synthesis.pattern import FlatArrow

    synthetic = []
    for tick, events in extra_checks.items():
        if not (0 <= tick < pattern.length):
            raise SynthesisError(
                f"extra check tick {tick} outside pattern of length "
                f"{pattern.length}"
            )
        for event in sorted(events):
            synthetic.append(
                FlatArrow(
                    f"__xcheck_{event}@{tick}",
                    cause_tick=tick,
                    cause_event=event,
                    effect_tick=tick,
                    effect_event=event,
                )
            )
    if not synthetic:
        return pattern

    class _CheckAugmented(FlatPattern):
        """Adds cross-domain checks without adding local Add_evt duties."""

        __slots__ = ("_synthetic",)

        def __init__(self, base: FlatPattern, extra):
            super().__init__(
                base.name, base.exprs, base.arrows,
                alphabet=base.alphabet, props=base.props,
            )
            object.__setattr__(self, "_synthetic", tuple(extra))

        def check_events_at(self, tick: int) -> FrozenSet[str]:
            local = super().check_events_at(tick)
            extra = frozenset(
                a.cause_event for a in self._synthetic if a.effect_tick == tick
            )
            return local | extra

    return _CheckAugmented(pattern, synthetic)


def synthesize_compiled(
    pattern: FlatPattern,
    name: Optional[str] = None,
    extra_adds: Optional[Mapping[int, FrozenSet[str]]] = None,
    extra_checks: Optional[Mapping[int, FrozenSet[str]]] = None,
):
    """Emit a :class:`~repro.runtime.compiled.CompiledMonitor` directly.

    Fills the same dense ``(state, valuation)`` table as
    :func:`~repro.synthesis.dense.synthesize_monitor`'s per-valuation
    enumeration, in place of
    minterm guard expressions — the table ``Tr`` computes *is* the
    compiled artifact.  The while loop reads a valuation ``e`` only
    through which pattern elements ``P[k]`` it satisfies, for
    ``k < min(n, s+1)``: each mask gets that *satisfaction signature*
    once (one compiled ``P[k]`` test per element), one ladder and one
    cell are built per distinct ``(state, signature)``, and every row
    is filled by lookup.  Carrier
    :class:`~repro.monitor.automaton.Transition` objects (one per
    distinct ``(state, target, actions, checks)``, in first-seen
    state-major order) keep the two-phase
    ``enabled_transition``/``commit`` contract and coverage logging
    working; their guards record only the scoreboard condition, not the
    (implicit) valuation index.
    """
    from repro.logic.codec import AlphabetCodec
    from repro.runtime.compiled import CompiledCheck, CompiledMonitor

    pattern = checked_pattern(pattern, extra_checks)
    n = pattern.length
    codec = AlphabetCodec(pattern.alphabet)
    compatibility = pattern_compatibility(pattern)
    # signatures[mask]: bit k set iff the mask's valuation satisfies P[k].
    signatures = [0] * codec.size
    for k, expr in enumerate(pattern.exprs):
        holds = expr.compile(codec)
        for mask in codec.all_masks():
            if holds(mask):
                signatures[mask] |= 1 << k
    interned: Dict[Tuple[int, int, tuple, FrozenSet[str], tuple], Transition] = {}
    closures: Dict[FrozenSet[str], object] = {}
    # Equal ladders share one tuple (smaller table, one pickle copy).
    cells: Dict[tuple, tuple] = {}

    def cell_for(state: int, signature: int):
        rungs = []
        failed_above: List[Expr] = []
        for rung in signature_ladder(pattern, state, signature,
                                     compatibility):
            condition = check_conjunction(rung.checks)
            actions = actions_for_move(
                pattern, state, rung.target, extra_adds
            )
            key = (state, rung.target, actions, rung.checks,
                   tuple(failed_above))
            transition = interned.get(key)
            if transition is None:
                guard = And(
                    (condition,) + tuple(failed_above)
                ).simplify()
                transition = Transition(state, guard, actions, rung.target)
                interned[key] = transition
            if rung.checks:
                closure = closures.get(rung.checks)
                if closure is None:
                    closure = CompiledCheck(condition, codec)
                    closures[rung.checks] = closure
                rungs.append((closure, transition))
                failed_above.append(Not(condition))
            else:
                rungs.append((None, transition))
                break
        if len(rungs) == 1 and rungs[0][0] is None:
            return rungs[0][1]
        cell = tuple(rungs)
        return cells.setdefault(cell, cell)

    table = []
    for state in range(n + 1):
        # The descent from ``state`` tests P[0..min(n, state+1)) only.
        tested = (1 << min(n, state + 1)) - 1
        by_signature: Dict[int, object] = {}
        # Masks in index order: cells and transitions are built in the
        # order the per-valuation loop first met them.
        for signature in signatures:
            signature &= tested
            if signature not in by_signature:
                by_signature[signature] = cell_for(state, signature)
        table.append([by_signature[signature & tested]
                      for signature in signatures])
    return CompiledMonitor(
        name or pattern.name,
        n_states=n + 1,
        initial=0,
        final=n,
        codec=codec,
        table=table,
        transitions=interned.values(),
        props=pattern.props,
        # Rung order is the while-loop descent: first passing rung wins
        # by construction, so cells resolve first-match.
        ladder_exclusive=True,
    )


def tr(chart: SCESC, name: Optional[str] = None) -> Monitor:
    """The paper's ``main`` routine: SCESC in, monitor out."""
    from repro.synthesis.dense import synthesize_monitor

    return synthesize_monitor(extract_pattern(chart), name=name)


def tr_compiled(chart: SCESC, name: Optional[str] = None):
    """``Tr`` straight to the compiled runtime: SCESC in, dispatch table out.

    Behaviourally identical to ``compile_monitor(tr(chart))`` but skips
    minterm guard construction, so synthesis itself is faster too.
    """
    return synthesize_compiled(extract_pattern(chart), name=name)
