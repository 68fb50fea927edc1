"""Monitor coverage: which states and transitions simulation exercised.

Verification closure needs to know whether the testbench actually drove
the monitor through its scenario spine and its failure edges.
:class:`MonitorCoverage` accumulates over any number of runs — live
engines, batch :class:`~repro.runtime.compiled.MonitorResult` lists
(including unpickled ones), or raw state/transition folds — and
reports state coverage, transition coverage and the never-taken edges
that :class:`~repro.campaign.CoverageCampaign` turns into
directed-trace targets.

Not every edge of a synthesized monitor is reachable: ``Tr`` completes
the transition function over *all* scoreboard valuations, so edges
guarded by a ``Chk_evt`` value the automaton can never produce (e.g.
"response seen while no command is outstanding" in a state only
enterable by issuing a command) are dead by construction.  Such edges
can be *excluded*: they drop out of the denominators and the uncovered
lists, and are reported separately, so 100% coverage means "everything
reachable was exercised" rather than being unreachable by definition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.monitor.automaton import Monitor, Transition
from repro.runtime.compiled import MonitorResult

__all__ = ["MonitorCoverage", "CoverageCollector"]


class MonitorCoverage:
    """Accumulates coverage for one monitor across runs.

    ``monitor`` may be an interpreted
    :class:`~repro.monitor.automaton.Monitor` or a
    :class:`~repro.runtime.compiled.CompiledMonitor` — both expose the
    5-tuple metadata and a ``transitions`` tuple, which is the edge
    universe being covered.
    """

    def __init__(self, monitor):
        self._monitor = monitor
        self._universe = frozenset(monitor.transitions)
        self._states_hit: Set[int] = set()
        self._transitions_hit: Set[Transition] = set()
        self._excluded_states: Set[int] = set()
        self._excluded_transitions: Set[Transition] = set()
        self._runs = 0

    # -- recording -------------------------------------------------------
    def _matches(self, ran) -> bool:
        if ran is self._monitor:
            return True
        # A compiled engine reports the CompiledMonitor whose ``source``
        # points back at the automaton this collector tracks — and vice
        # versa when the collector tracks the compiled form.
        if getattr(ran, "source", None) is self._monitor:
            return True
        return getattr(self._monitor, "source", None) is ran

    def record(self, engine) -> None:
        """Fold one finished engine run into the coverage totals.

        Accepts interpreted engines and compiled engines alike, as long
        as the automaton they ran is this collector's monitor (directly
        or through the compiled/interpreted ``source`` link).  The
        logged transitions are still validated against this monitor's
        edge universe — a linked automaton with a *different* edge set
        (e.g. the dense source of a directly-synthesized table) must
        not silently inflate the numerator.
        """
        if not self._matches(engine.monitor):
            raise ValueError(
                "engine ran a different monitor than this collector tracks"
            )
        self.record_path(engine.result().states, engine.transition_log)

    def record_result(self, result: MonitorResult) -> None:
        """Fold one batch result (a planned batch runner's output).

        The result must carry its transition log — run the batch with
        ``record_transitions=True``.  Transition objects compare
        structurally, so unpickled results fold correctly into a
        collector tracking the original monitor.
        """
        if result.transitions is None:
            raise ValueError(
                "result carries no transition log; run the batch with "
                "record_transitions=True"
            )
        self.record_path(result.states, result.transitions)

    def record_path(self, states: Iterable[int] = (),
                    transitions: Iterable[Transition] = ()) -> None:
        """Fold raw state/transition sequences (one run's worth).

        Validation happens before any mutation: a rejected fold leaves
        the collector exactly as it was.
        """
        state_set = set(states)
        for state in state_set:
            if not (0 <= state < self._monitor.n_states):
                raise ValueError(
                    f"state {state} outside 0..{self._monitor.n_states - 1}"
                )
        transition_set = set(transitions)
        for transition in transition_set:
            if transition not in self._universe:
                raise ValueError(
                    f"transition {transition!r} is not an edge of monitor "
                    f"{self._monitor.name!r}"
                )
        self._states_hit |= state_set
        self._transitions_hit |= transition_set
        self._runs += 1

    def merge(self, other: "MonitorCoverage") -> None:
        """Fold another collector's totals into this one.

        Both must track the same automaton (directly or through the
        compiled/interpreted link) — merging lets per-engine or
        per-run collectors combine into one closure picture.
        """
        if not self._matches(other._monitor):
            raise ValueError(
                "cannot merge coverage of a different monitor"
            )
        foreign = other._transitions_hit - self._universe
        if foreign:
            raise ValueError(
                f"cannot merge: {len(foreign)} recorded transition(s) are "
                f"not edges of monitor {self._monitor.name!r}"
            )
        self._states_hit |= other._states_hit
        self._transitions_hit |= other._transitions_hit
        self._runs += other._runs

    # -- exclusions ------------------------------------------------------
    def exclude_states(self, states: Iterable[int]) -> None:
        """Drop ``states`` from the coverage goal (proven unreachable)."""
        for state in states:
            if not (0 <= state < self._monitor.n_states):
                raise ValueError(
                    f"state {state} outside 0..{self._monitor.n_states - 1}"
                )
            self._excluded_states.add(state)

    def exclude_transitions(self, transitions: Iterable[Transition]) -> None:
        """Drop ``transitions`` from the coverage goal."""
        for transition in transitions:
            if transition not in self._universe:
                raise ValueError(
                    f"transition {transition!r} is not an edge of monitor "
                    f"{self._monitor.name!r}"
                )
            self._excluded_transitions.add(transition)

    @property
    def excluded_states(self) -> List[int]:
        return sorted(self._excluded_states)

    @property
    def excluded_transitions(self) -> List[Transition]:
        return [t for t in self._monitor.transitions
                if t in self._excluded_transitions]

    # -- totals ----------------------------------------------------------
    @property
    def runs(self) -> int:
        return self._runs

    def state_coverage(self) -> float:
        goal = self._monitor.n_states - len(self._excluded_states)
        if goal <= 0:
            return 1.0
        hit = len(self._states_hit - self._excluded_states)
        return min(hit, goal) / goal

    def transition_coverage(self) -> float:
        goal = len(self._universe) - len(self._excluded_transitions)
        if goal <= 0:
            return 1.0
        hit = len(self._transitions_hit - self._excluded_transitions)
        return min(hit, goal) / goal

    def uncovered_states(self) -> List[int]:
        return sorted(
            set(self._monitor.states)
            - self._states_hit - self._excluded_states
        )

    def uncovered_transitions(self) -> List[Transition]:
        return [
            t for t in self._monitor.transitions
            if t not in self._transitions_hit
            and t not in self._excluded_transitions
        ]

    def never_taken(self) -> Dict[str, object]:
        """The closure worklist: what remains to be exercised.

        ``states``/``transitions`` are the open targets (exclusions
        already removed) — exactly what the campaign loop turns into
        directed-trace goals; ``excluded_*`` records what was proven
        unreachable and written off.
        """
        return {
            "states": self.uncovered_states(),
            "transitions": self.uncovered_transitions(),
            "excluded_states": self.excluded_states,
            "excluded_transitions": self.excluded_transitions,
        }

    def report(self) -> Dict[str, object]:
        return {
            "runs": self._runs,
            "state_coverage": round(self.state_coverage(), 4),
            "transition_coverage": round(self.transition_coverage(), 4),
            "uncovered_states": self.uncovered_states(),
            "uncovered_transition_count": len(self.uncovered_transitions()),
            "excluded_states": self.excluded_states,
            "excluded_transition_count": len(self._excluded_transitions),
        }

    def __repr__(self):
        return (
            f"MonitorCoverage({self._monitor.name!r}, runs={self._runs}, "
            f"states={self.state_coverage():.0%}, "
            f"transitions={self.transition_coverage():.0%})"
        )


#: Backwards-compatible name from before the campaign engine existed.
CoverageCollector = MonitorCoverage
