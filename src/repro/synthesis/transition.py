"""``compute_transition_func`` — the KMP-style transition table.

The paper generalises the CLRS string-matching automaton from concrete
characters to Boolean expressions:

* a pattern element ``P[k]`` is *matched* by a trace element ``e`` iff
  ``P[k]`` evaluates true under ``e``;
* a prefix ``P_k`` matches a suffix of ``T_s . e`` iff the elements
  match position-wise.  The already-read text ``T_s`` is approximated
  by the pattern prefix that matched it (the CLRS invariant), so the
  position-wise test for the overlap becomes *joint satisfiability* of
  the two pattern elements involved.

For each state ``s`` and each concrete valuation ``e`` over the
restricted alphabet, the target is the largest ``k <= min(n, s+1)``
such that ``P_k suffix_of T_s . e`` — exactly the paper's while loop.

This module computes the *candidate ladder* for each state: the ordered
list of ``k`` values the while loop would try, with the per-``k``
conditions split into a concrete part (does ``e`` match ``P[k]``) and a
scoreboard part (the ``Chk_evt`` conjunction causality attaches to
position ``k``).  :mod:`repro.synthesis.tr` turns ladders into guarded
transitions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from repro.logic.expr import Expr
from repro.logic.sat import jointly_satisfiable
from repro.logic.valuation import Valuation, enumerate_valuations
from repro.synthesis.pattern import FlatPattern

__all__ = [
    "LadderRung",
    "candidate_ladder",
    "compute_transition_table",
    "pattern_compatibility",
    "signature_ladder",
]


class LadderRung(NamedTuple):
    """One candidate target ``k`` for a (state, valuation) pair.

    ``checks`` is the set of events whose scoreboard presence the
    causality discipline requires for the final matched position (the
    ``Chk_evt`` conjunction); an empty set means the rung fires
    unconditionally once reached.
    """

    target: int
    checks: FrozenSet[str]


def pattern_compatibility(pattern: FlatPattern) -> Dict[Tuple[int, int], bool]:
    """Joint satisfiability of every pattern-element pair.

    ``table[(i, j)]`` is true iff one trace element could match both
    ``P[i]`` and ``P[j]`` (0-based).  This is the overlap test used by
    the suffix relation; results are symmetric and cached.
    """
    table: Dict[Tuple[int, int], bool] = {}
    exprs = pattern.exprs
    for i in range(len(exprs)):
        for j in range(i, len(exprs)):
            compatible = jointly_satisfiable(exprs[i], exprs[j])
            table[(i, j)] = compatible
            table[(j, i)] = compatible
    return table


def _prefix_suffix_compatible(
    pattern: FlatPattern,
    compatibility: Dict[Tuple[int, int], bool],
    k: int,
    s: int,
) -> bool:
    """Could ``P_k``'s first ``k-1`` elements overlay the tail of ``P_s``?

    Position-wise (0-based): pattern element ``j`` against pattern
    element ``s - k + 1 + j`` for ``j`` in ``0..k-2`` (the last element
    of the prefix is checked against the live input separately).
    """
    for j in range(k - 1):
        if not compatibility[(j, s - k + 1 + j)]:
            return False
    return True


def candidate_ladder(
    pattern: FlatPattern,
    state: int,
    valuation: Valuation,
    compatibility: Dict[Tuple[int, int], bool],
) -> List[LadderRung]:
    """The while-loop descent for ``(state, valuation)``.

    Returns the rungs ``k = min(n, s+1) .. 0`` whose *concrete*
    conditions hold under ``valuation``, each with the ``Chk_evt`` set
    causality attaches to its final position.  The first rung whose
    checks pass at run time is the transition target; the ``k = 0``
    rung (empty prefix, no checks) is always present, so the ladder
    never dead-ends.
    """
    return _descent(
        pattern, state,
        lambda k: pattern.exprs[k].evaluate(valuation), compatibility,
    )


def signature_ladder(
    pattern: FlatPattern,
    state: int,
    signature: int,
    compatibility: Dict[Tuple[int, int], bool],
) -> List[LadderRung]:
    """The descent for every valuation with satisfaction ``signature``.

    Bit ``k`` of ``signature`` is set iff the valuation satisfies
    ``P[k]``.  The while loop reads its valuation only through those
    tests, for ``k < min(n, s+1)``, so this equals
    :func:`candidate_ladder` for every valuation whose signature agrees
    on those bits.
    """
    return _descent(
        pattern, state, lambda k: signature >> k & 1, compatibility,
    )


def _descent(pattern, state, holds, compatibility) -> List[LadderRung]:
    """The paper's while loop; ``holds(k)``: does the input match
    ``P[k]`` (0-based)?"""
    n = pattern.length
    rungs: List[LadderRung] = []
    k = min(n, state + 1)
    while k > 0:
        if holds(k - 1) and _prefix_suffix_compatible(
            pattern, compatibility, k, state
        ):
            rungs.append(LadderRung(k, pattern.check_events_at(k - 1)))
            if not pattern.check_events_at(k - 1):
                # Unconditional rung: the while loop stops here for
                # every scoreboard state; lower rungs are unreachable.
                return rungs
        k -= 1
    rungs.append(LadderRung(0, frozenset()))
    return rungs


def compute_transition_table(
    pattern: FlatPattern,
) -> Dict[Tuple[int, FrozenSet[str]], List[LadderRung]]:
    """The full transition table: ladders for every state and valuation.

    Keys are ``(state, frozenset_of_true_symbols)``; valuations are
    enumerated over the pattern's restricted alphabet (the paper's
    ``for each e in 2^Sigma``).  Without causality arrows every ladder
    has exactly one rung and the table *is* the paper's ``delta``.
    """
    compatibility = pattern_compatibility(pattern)
    alphabet = sorted(pattern.alphabet)
    table: Dict[Tuple[int, FrozenSet[str]], List[LadderRung]] = {}
    for state in range(pattern.length + 1):
        for valuation in enumerate_valuations(alphabet):
            ladder = candidate_ladder(pattern, state, valuation, compatibility)
            table[(state, valuation.true)] = ladder
    return table
