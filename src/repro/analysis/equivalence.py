"""Checking the paper's correctness result ``[[C]] = Sigma*.L(M).Sigma^w``.

Three strengths of evidence, trading completeness against cost:

1. :func:`detectors_equivalent` — *exact* on the restricted alphabet:
   the ``Tr`` monitor (as a DFA over concrete valuations) and the exact
   subset detector are compared by product-automaton reachability; a
   counterexample input sequence is returned when they disagree.
2. :func:`exhaustive_theorem_check` — every trace up to a length bound
   is enumerated; the monitor's detections are compared against the
   denotational oracle (`run_satisfies` / `satisfying_windows`).
3. :func:`sampled_theorem_check` — seeded random traces for alphabets
   too large to enumerate.

The product check treats detection as "an accepting state is entered at
tick i", i.e. both machines recognise the *ends* of matching windows;
this captures ``Sigma* . L(M)`` (the ``Sigma^w`` tail is free: any
suffix extends a detected prefix).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.cesc.ast import SCESC
from repro.cesc.charts import ScescChart
from repro.errors import ExprError, MonitorError
from repro.logic.codec import MAX_CODEC_SYMBOLS, AlphabetCodec
from repro.logic.sat import jointly_satisfiable
from repro.logic.valuation import Valuation, enumerate_valuations
from repro.monitor.automaton import Monitor, Transition
from repro.monitor.engine import run_monitor
from repro.semantics.denotation import satisfying_windows
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace
from repro.synthesis.pattern import extract_pattern
from repro.synthesis.subset import SubsetMonitor

__all__ = [
    "detectors_equivalent",
    "exhaustive_theorem_check",
    "paper_construction_exact",
    "sampled_theorem_check",
    "transition_function",
]


def _codec_for(monitor: Monitor) -> AlphabetCodec:
    """The codec enumerating the monitor's valuations, cap enforced.

    The dense ``2^|Sigma|`` enumeration below shares
    :data:`~repro.logic.codec.MAX_CODEC_SYMBOLS` with the compiled
    runtime — one limit for every layer that materialises the
    valuation space.
    """
    if len(monitor.alphabet) > MAX_CODEC_SYMBOLS:
        raise MonitorError(
            f"monitor {monitor.name!r}: alphabet of "
            f"{len(monitor.alphabet)} symbols exceeds the "
            f"2^{MAX_CODEC_SYMBOLS} valuation-enumeration cap "
            f"(shared with AlphabetCodec) — prune the alphabet or "
            f"split the chart"
        )
    return AlphabetCodec(monitor.alphabet)


def transition_function(
    monitor: Monitor,
) -> Dict[Tuple[int, FrozenSet[str]], int]:
    """Explicit ``(state, valuation) -> state`` table over the alphabet.

    Requires an action-free monitor whose guards reference only input
    symbols (no ``Chk_evt``); raises on anything else.
    """
    if monitor.has_actions():
        raise MonitorError(
            f"monitor {monitor.name!r} carries scoreboard actions; its "
            "transition function is scoreboard-dependent"
        )
    codec = _codec_for(monitor)
    table: Dict[Tuple[int, FrozenSet[str]], int] = {}
    for state in monitor.states:
        outgoing = monitor.transitions_from(state)
        for mask in codec.all_masks():
            valuation = codec.decode(mask)
            enabled = [
                t for t in outgoing
                if _guard_holds(t, valuation)
            ]
            if len({t.target for t in enabled}) != 1:
                raise MonitorError(
                    f"monitor {monitor.name!r}: state {state} has "
                    f"{len(enabled)} enabled transitions on {valuation!r}"
                )
            table[(state, valuation.true)] = enabled[0].target
    return table


def _guard_holds(transition: Transition, valuation: Valuation) -> bool:
    try:
        return transition.guard.evaluate(valuation)
    except ExprError as error:  # Chk_evt evaluated without a scoreboard
        raise MonitorError(
            f"guard {transition.guard!r} is scoreboard-dependent: {error}"
        ) from error


def paper_construction_exact(pattern) -> bool:
    """Sufficient condition for ``Tr`` to equal the exact detector.

    The paper's failure computation approximates the already-read text
    by the pattern elements it matched.  When the monitor is in state
    ``s``, the element that matched position ``i`` is *assumed* to also
    match position ``j`` (of a shifted prefix) whenever
    ``P[i] & P[j]`` is satisfiable; the real text element guarantees
    this only when ``P[i]`` *entails* ``P[j]``.  The construction is
    therefore exact whenever, for every ordered pair of pattern
    positions, joint satisfiability implies entailment — e.g. patterns
    whose grid lines are pairwise incompatible (distinct protocol
    phases) or identical (repetition).

    Charts violating this can make ``Tr`` over- or under-report
    detections relative to ``[[C]]``; ``bench_ablation_kmp`` quantifies
    how often.
    """
    from repro.logic.sat import entails as _entails

    exprs = pattern.exprs
    for i in range(len(exprs)):
        for j in range(len(exprs)):
            if i == j:
                continue
            if jointly_satisfiable(exprs[i], exprs[j]) and not _entails(
                exprs[i], exprs[j]
            ):
                return False
    return True


def detectors_equivalent(
    monitor: Monitor, chart: SCESC
) -> Optional[List[FrozenSet[str]]]:
    """Product-check the monitor against the exact subset detector.

    Returns ``None`` when the two accept identical detection languages
    over the restricted alphabet, else the shortest input sequence
    (list of true-symbol sets) on which they disagree.  Requires an
    action-free monitor (synthesize the chart without causality arrows
    or strip them first) because the explicit transition function must
    not depend on the scoreboard.
    """
    table = transition_function(monitor)
    pattern = extract_pattern(chart)
    subset = SubsetMonitor(pattern)
    dfa = subset.to_dfa()
    alphabet = sorted(monitor.alphabet | frozenset(dfa.alphabet))
    valuations = [v for v in enumerate_valuations(alphabet)]

    start = (monitor.initial, dfa.initial)
    parents: Dict[Tuple[int, int], Optional[Tuple[Tuple[int, int], FrozenSet[str]]]] = {
        start: None
    }
    frontier = [start]
    while frontier:
        next_frontier = []
        for pair in frontier:
            monitor_state, dfa_state = pair
            for valuation in valuations:
                m_key = (monitor_state,
                         valuation.true & frozenset(monitor.alphabet))
                m_next = table[m_key]
                d_next = dfa.step(dfa_state, valuation)
                m_accepts = m_next == monitor.final
                d_accepts = d_next in dfa.accepting
                if m_accepts != d_accepts:
                    # Reconstruct the counterexample input sequence.
                    path: List[FrozenSet[str]] = [valuation.true]
                    cursor = pair
                    while parents[cursor] is not None:
                        previous, symbol = parents[cursor]
                        path.append(symbol)
                        cursor = previous
                    path.reverse()
                    return path
                successor = (m_next, d_next)
                if successor not in parents:
                    parents[successor] = (pair, valuation.true)
                    next_frontier.append(successor)
        frontier = next_frontier
    return None


def _expected_detections(chart: SCESC, trace: Trace) -> List[int]:
    windows = satisfying_windows(ScescChart(chart), trace)
    return sorted({start + chart.n_ticks - 1 for start, _ in windows})


def exhaustive_theorem_check(
    monitor: Monitor, chart: SCESC, max_length: int = 5
) -> Optional[Trace]:
    """Compare monitor vs denotation on *every* trace up to ``max_length``.

    Returns the first disagreeing trace, or ``None``.  Exponential in
    ``max_length * |Sigma|`` — intended for charts over 2-3 symbols.
    """
    alphabet = sorted(chart.alphabet())
    letters = [v.true for v in enumerate_valuations(alphabet)]

    def extend(prefix: List[FrozenSet[str]]) -> Optional[Trace]:
        if prefix:
            trace = Trace.from_sets(prefix, alphabet=alphabet)
            got = run_monitor(monitor, trace).detections
            expected = _expected_detections(chart, trace)
            if got != expected:
                return trace
        if len(prefix) == max_length:
            return None
        for letter in letters:
            result = extend(prefix + [letter])
            if result is not None:
                return result
        return None

    return extend([])


def sampled_theorem_check(
    monitor: Monitor,
    chart: SCESC,
    samples: int = 200,
    trace_length: int = 12,
    seed: int = 0,
) -> Tuple[int, Optional[Trace]]:
    """Random-trace agreement count; returns ``(agreements, first_fail)``.

    The sample mix is half noise, half noise-embedded satisfying
    windows, so both acceptance and rejection paths are exercised.
    """
    generator = TraceGenerator(ScescChart(chart), seed=seed)
    agreements = 0
    for index in range(samples):
        if index % 2 == 0:
            trace = generator.random_trace(trace_length)
        else:
            pad = max(0, trace_length - chart.n_ticks)
            trace = generator.satisfying_trace(
                prefix=pad // 2, suffix=pad - pad // 2
            )
        got = run_monitor(monitor, trace).detections
        expected = _expected_detections(chart, trace)
        if got == expected:
            agreements += 1
        else:
            return agreements, trace
    return agreements, None
