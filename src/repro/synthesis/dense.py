"""The paper's per-valuation ``Tr``: minterm-guarded monitors.

:func:`synthesize_monitor` turns the while loop's descent for every
(state, valuation) into transitions guarded by the valuation's minterm
and the rung's ``Chk_evt`` conditions; :func:`~repro.synthesis.tr.tr`
returns it.  Checks run :func:`~repro.synthesis.tr.tr_compiled`, so
this module loads only where a minterm monitor is asked for.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, Optional, Sequence

from repro.logic.expr import And, EventRef, Expr, Not, PropRef, TRUE, all_of
from repro.logic.valuation import enumerate_valuations
from repro.monitor.automaton import Monitor, Transition
from repro.synthesis.causality import actions_for_move
from repro.synthesis.pattern import FlatPattern
from repro.synthesis.tr import check_conjunction, checked_pattern
from repro.synthesis.transition import (
    LadderRung, candidate_ladder, pattern_compatibility)

__all__ = ["minterm_expr", "synthesize_monitor"]


def minterm_expr(true_symbols: FrozenSet[str], alphabet: Sequence[str],
                 props: FrozenSet[str]) -> Expr:
    """The complete product term selecting exactly one valuation."""
    literals: List[Expr] = []
    for symbol in alphabet:
        atom: Expr = PropRef(symbol) if symbol in props else EventRef(symbol)
        literals.append(atom if symbol in true_symbols else Not(atom))
    return all_of(literals)


def _ladder_transitions(
    pattern: FlatPattern,
    state: int,
    minterm: Expr,
    ladder: Sequence[LadderRung],
    extra_adds: Optional[Mapping[int, FrozenSet[str]]],
) -> List[Transition]:
    """Turn a while-loop descent into disjoint guarded transitions.

    Rung ``i`` fires when its ``Chk_evt`` conjunction holds and every
    higher rung's conjunction fails; the last rung (no checks) is the
    unconditional floor, so the guards partition the input space.
    """
    transitions: List[Transition] = []
    failed_above: List[Expr] = []
    for rung in ladder:
        condition = check_conjunction(rung.checks)
        guard = And(
            (minterm, condition) + tuple(failed_above)
        ).simplify()
        actions = actions_for_move(pattern, state, rung.target, extra_adds)
        transitions.append(Transition(state, guard, actions, rung.target))
        if condition == TRUE:
            break
        failed_above.append(Not(condition))
    return transitions


def synthesize_monitor(
    pattern: FlatPattern,
    name: Optional[str] = None,
    extra_adds: Optional[Mapping[int, FrozenSet[str]]] = None,
    extra_checks: Optional[Mapping[int, FrozenSet[str]]] = None,
) -> Monitor:
    """Synthesize the monitor for a flat pattern (paper's ``Tr`` core).

    ``extra_adds`` / ``extra_checks`` inject cross-domain causality
    obligations (tick -> event set) when the pattern is one local chart
    of a multi-clock composition.
    """
    pattern = checked_pattern(pattern, extra_checks)
    n = pattern.length
    alphabet = sorted(pattern.alphabet)
    compatibility = pattern_compatibility(pattern)
    transitions: List[Transition] = []
    for state in range(n + 1):
        for valuation in enumerate_valuations(alphabet):
            ladder = candidate_ladder(pattern, state, valuation, compatibility)
            minterm = minterm_expr(valuation.true, alphabet, pattern.props)
            transitions.extend(
                _ladder_transitions(pattern, state, minterm, ladder, extra_adds)
            )
    return Monitor(
        name or pattern.name,
        n_states=n + 1,
        initial=0,
        final=n,
        transitions=transitions,
        alphabet=pattern.alphabet,
        props=pattern.props,
    )
