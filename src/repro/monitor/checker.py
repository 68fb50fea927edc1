"""Assertion-checker semantics: pass/fail verdicts from implications.

Monitors synthesized by ``Tr`` are scenario *detectors*.  Assertion-
based verification additionally needs *violations*: an
:class:`~repro.cesc.charts.Implication` chart ``A => C`` asserts that
every occurrence of the antecedent scenario is immediately followed by
the consequent scenario.  The checker runs the antecedent's detector
bank and, on each detection, opens an *obligation* that tracks the
consequent's pattern alternatives tick by tick (SVA-style overlapping
attempts are supported — several obligations may be live at once, as
in the pipelined burst of Figure 7).

Verdicts:

* ``PASS``    — some consequent alternative completed;
* ``FAIL``    — every alternative died (a tick matched none of the
  live alternatives' next expressions);
* ``PENDING`` — the trace ended with the obligation still live.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Set, Tuple

from repro.cesc.charts import Chart, Implication, as_chart
from repro.errors import MonitorError
from repro.logic.valuation import Valuation
from repro.semantics.run import Trace

__all__ = [
    "Verdict",
    "Obligation",
    "CheckReport",
    "AssertionChecker",
    "advance_obligation",
]


class Verdict(enum.Enum):
    """Outcome of one antecedent-triggered obligation."""

    PASS = "pass"
    FAIL = "fail"
    PENDING = "pending"


class Obligation:
    """One live consequent-matching attempt.

    ``alternatives`` holds ``(pattern_index, position)`` pairs: the
    consequent alternatives still viable and how far each has matched.
    """

    __slots__ = ("start_tick", "alternatives", "verdict", "decided_tick",
                 "failed_expectations")

    def __init__(self, start_tick: int, n_alternatives: int):
        self.start_tick = start_tick
        self.alternatives: Set[Tuple[int, int]] = {
            (index, 0) for index in range(n_alternatives)
        }
        self.verdict = Verdict.PENDING
        self.decided_tick: Optional[int] = None
        self.failed_expectations: List[str] = []

    def __repr__(self):
        return (
            f"Obligation(start={self.start_tick}, verdict={self.verdict.value}, "
            f"alternatives={len(self.alternatives)})"
        )


def advance_obligation(obligation: Obligation, consequents, valuation: Valuation,
                       tick_index: int) -> None:
    """Advance one live obligation by one tick (in place).

    Shared by the batch :class:`AssertionChecker` and the streaming
    pipeline's online checker so the obligation semantics cannot drift
    between the two.  ``consequents`` is the flattened consequent
    pattern list; the obligation's verdict moves to ``PASS`` when some
    alternative completes, ``FAIL`` when every alternative died.
    """
    survivors: Set[Tuple[int, int]] = set()
    for pattern_index, position in obligation.alternatives:
        pattern = consequents[pattern_index]
        expr = pattern.exprs[position]
        if expr.evaluate(valuation):
            if position + 1 == pattern.length:
                obligation.verdict = Verdict.PASS
                obligation.decided_tick = tick_index
                return
            survivors.add((pattern_index, position + 1))
        else:
            obligation.failed_expectations.append(
                f"tick {tick_index}: expected {expr!r} "
                f"(alternative {pattern.name!r} position {position})"
            )
    obligation.alternatives = survivors
    if not survivors:
        obligation.verdict = Verdict.FAIL
        obligation.decided_tick = tick_index


class CheckReport:
    """All obligations raised while checking a trace."""

    def __init__(self, obligations: List[Obligation],
                 antecedent_detections: List[int]):
        self.obligations = obligations
        self.antecedent_detections = antecedent_detections

    @property
    def violations(self) -> List[Obligation]:
        return [o for o in self.obligations if o.verdict is Verdict.FAIL]

    @property
    def passes(self) -> List[Obligation]:
        return [o for o in self.obligations if o.verdict is Verdict.PASS]

    @property
    def pending(self) -> List[Obligation]:
        return [o for o in self.obligations if o.verdict is Verdict.PENDING]

    @property
    def ok(self) -> bool:
        """No violation observed (pending obligations don't count)."""
        return not self.violations

    def __repr__(self):
        return (
            f"CheckReport(pass={len(self.passes)}, fail={len(self.violations)}, "
            f"pending={len(self.pending)})"
        )


class AssertionChecker:
    """Checker for ``A => C`` implication charts over clocked traces."""

    def __init__(self, chart: Chart, variant: str = "tr",
                 loop_limit: int = 3, engine: str = "interpreted"):
        # Imported here to keep repro.monitor importable on its own
        # (synthesis depends on monitor for its output types).
        from repro.synthesis.compose import synthesize_chart
        from repro.synthesis.pattern import flatten_chart

        chart = as_chart(chart)
        if not isinstance(chart, Implication):
            raise MonitorError(
                "AssertionChecker requires an Implication chart; plain "
                "charts are detectors — use synthesize_chart"
            )
        # Imported lazily for the same monitor-importability reason;
        # engines.py only pulls in repro.errors at module level.
        from repro.runtime.engines import resolve_step_backend

        backend = resolve_step_backend(engine, error_cls=MonitorError)
        self._chart = chart
        self._backend = backend
        self._bank: MonitorBank = synthesize_chart(
            chart.antecedent, variant=variant, loop_limit=loop_limit,
        )
        self._consequents: List[FlatPattern] = flatten_chart(
            chart.consequent, loop_limit=loop_limit
        )

    @property
    def antecedent_bank(self) -> MonitorBank:
        return self._bank

    @property
    def consequent_patterns(self) -> List[FlatPattern]:
        return list(self._consequents)

    def check(self, trace: Trace) -> CheckReport:
        """Scan the whole trace; return every obligation's verdict."""
        members = (self._bank.compiled_members()
                   if self._backend.wants_compiled else self._bank.monitors)
        engines = [self._backend.make_engine(member) for member in members]
        obligations: List[Obligation] = []
        live: List[Obligation] = []
        detections: List[int] = []

        for tick_index, valuation in enumerate(trace):
            # Advance live obligations first: an obligation opened at
            # detection tick t starts matching at tick t+1.
            for obligation in live:
                self._advance(obligation, valuation, tick_index)
            live = [o for o in live if o.verdict is Verdict.PENDING]

            detected_now = False
            for engine in engines:
                before = len(engine.detections)
                engine.step(valuation)
                if len(engine.detections) > before:
                    detected_now = True
            if detected_now:
                detections.append(tick_index)
                obligation = Obligation(tick_index, len(self._consequents))
                obligations.append(obligation)
                live.append(obligation)
        return CheckReport(obligations, detections)

    def _advance(self, obligation: Obligation, valuation: Valuation,
                 tick_index: int) -> None:
        advance_obligation(obligation, self._consequents, valuation, tick_index)
