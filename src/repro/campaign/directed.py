"""Directed stimulus synthesis: walking monitor automata into traces.

Random generation (:class:`~repro.semantics.generator.TraceGenerator`)
covers the scenario spine quickly but leaves rarely-enabled edges —
``Chk_evt`` branches, specific near-miss orderings — never taken.  The
:class:`StimulusSynthesizer` instead *walks the automaton*: breadth-
first search over monitor configurations ``(state, scoreboard)``,
where every edge of the search is a guard solved into a concrete
:class:`~repro.logic.valuation.Valuation` — by
:func:`~repro.logic.sat.satisfying_valuation` for interpreted
:class:`~repro.monitor.automaton.Monitor` guards, by direct
``(state, mask)`` table lookup for
:class:`~repro.runtime.compiled.CompiledMonitor` dispatch tables.

One BFS pass (memoized) yields shortest witnesses for everything at
once: the shortest accepting trace, a shortest near-miss violating
trace, and a shortest trace reaching any named state or taking any
named transition — the worklist a
:class:`~repro.campaign.CoverageCampaign` drives to closure.

The scoreboard half of a configuration is a counter map capped at
``scoreboard_cap`` (the multiset never needs unbounded counts for
presence checks as long as the cap exceeds the deepest add-pipeline,
e.g. 4 outstanding commands in the OCP burst monitor).  Because the
cap is an abstraction, every synthesized trace is *replayed* through a
real engine before being returned: the replay must take exactly the
planned transitions, so predicted detection ticks are exact by
construction, never an artifact of the search abstraction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import CampaignError, ScoreboardError
from repro.logic.expr import scoreboard_checks_of
from repro.logic.sat import satisfying_valuation
from repro.logic.valuation import Valuation
from repro.monitor.automaton import AddEvt, DelEvt, Monitor, Transition
from repro.monitor.engine import CompiledEngine, MonitorEngine
from repro.monitor.scoreboard import Scoreboard
from repro.runtime.compiled import CompiledMonitor
from repro.semantics.run import Trace

__all__ = ["DirectedTrace", "StimulusSynthesizer"]

#: Scoreboard abstraction: sorted ((event, count), ...) with counts > 0.
_SbKey = Tuple[Tuple[str, int], ...]
_Config = Tuple[int, _SbKey]

#: One BFS step: the input consumed and the transition it fires.
_Step = Tuple[Valuation, Transition]


class DirectedTrace:
    """A synthesized trace together with the run it provably produces.

    ``path`` is the exact transition sequence the monitor takes on
    ``trace`` (verified by replay at construction time) and
    ``predicted_detections`` the ticks at which the final state is
    entered — the contract every execution backend must reproduce.
    """

    __slots__ = ("trace", "path", "kind", "predicted_detections", "label")

    def __init__(self, trace: Trace, path: Tuple[Transition, ...],
                 kind: str, predicted_detections: Tuple[int, ...],
                 label: str):
        self.trace = trace
        self.path = path
        self.kind = kind
        self.predicted_detections = predicted_detections
        self.label = label

    @property
    def accepting(self) -> bool:
        return bool(self.predicted_detections)

    def __repr__(self):
        return (
            f"DirectedTrace({self.label!r}, kind={self.kind!r}, "
            f"ticks={self.trace.length}, "
            f"predicted={list(self.predicted_detections)})"
        )


class _Reachability:
    """Everything one exhaustive BFS pass learned about the automaton."""

    def __init__(self):
        #: config -> (parent config, step that discovered it); the
        #: initial config maps to None.
        self.parents: Dict[_Config, Optional[Tuple[_Config, _Step]]] = {}
        #: first (shortest) occurrence of each transition:
        #: transition -> (config it fires from, the step).
        self.first_edge: Dict[Transition, Tuple[_Config, _Step]] = {}
        #: first config observed in each state.
        self.first_state: Dict[int, _Config] = {}
        self.states: Set[int] = set()
        self.transitions: Set[Transition] = set()
        self.truncated = False


class StimulusSynthesizer:
    """Shortest directed traces through one monitor automaton.

    Works on both monitor forms: an interpreted
    :class:`~repro.monitor.automaton.Monitor` (guards solved by SAT)
    or a :class:`~repro.runtime.compiled.CompiledMonitor` (cells read
    off the dispatch table).  All queries share one memoized
    reachability pass; targets the pass proves unreachable come back
    as ``None``.
    """

    def __init__(self, monitor, max_depth: Optional[int] = None,
                 scoreboard_cap: int = 8, max_configs: int = 50_000):
        self._monitor = monitor
        self._is_compiled = isinstance(monitor, CompiledMonitor)
        if self._is_compiled:
            self._order: Tuple[str, ...] = monitor.codec.symbols
        else:
            self._order = tuple(sorted(monitor.alphabet))
        self._alphabet = frozenset(self._order)
        self._max_depth = (
            max_depth if max_depth is not None
            else max(16, 4 * monitor.n_states)
        )
        self._cap = scoreboard_cap
        self._max_configs = max_configs
        self._solve_cache: Dict[Tuple, Optional[Valuation]] = {}
        self._reach: Optional[_Reachability] = None
        if self._is_compiled:
            self._rows = self._index_table(monitor)

    # -- public queries --------------------------------------------------
    @property
    def monitor(self):
        return self._monitor

    def reachable_states(self) -> Set[int]:
        return set(self._explore().states)

    def reachable_transitions(self) -> Set[Transition]:
        return set(self._explore().transitions)

    def exploration_exhaustive(self) -> bool:
        """Did the search reach a fixpoint within its bounds?

        Only an exhaustive pass turns "not found" into "proven
        unreachable"; a truncated one (depth bound hit, config limit
        hit) merely failed to find a witness.  Consumers that *write
        off* targets — coverage exclusions — must check this first.
        """
        return not self._explore().truncated

    def unreachable_states(self) -> List[int]:
        """States no run can visit (empty when exploration truncated)."""
        reach = self._explore()
        if reach.truncated:
            return []
        return sorted(set(self._monitor.states) - reach.states)

    def unreachable_transitions(self) -> List[Transition]:
        """Edges no run can take (empty when exploration truncated)."""
        reach = self._explore()
        if reach.truncated:
            return []
        return [t for t in self._monitor.transitions
                if t not in reach.transitions]

    def accepting_trace(self) -> Optional[DirectedTrace]:
        """The shortest trace entering the final state (detection)."""
        reach = self._explore()
        final = self._monitor.final
        best: Optional[Tuple[int, _Config, _Step]] = None
        for transition, (config, step) in reach.first_edge.items():
            if transition.target != final:
                continue
            length = self._depth_of(config, reach) + 1
            if best is None or length < best[0]:
                best = (length, config, step)
        if best is None:
            return None
        steps = self._path_to(best[1], reach) + [best[2]]
        return self._finish(steps, "accepting", "shortest accepting path")

    def violating_trace(self) -> Optional[DirectedTrace]:
        """The shortest near-miss: on track for a detection, derailed
        at the last tick.

        Follows the shortest accepting path up to its final step, then
        takes an enabled edge that does *not* enter the final state —
        the monitor observes the scenario failing at the exact tick it
        should have completed.  ``None`` when every enabled edge at
        that point detects (no near-miss exists at this depth).
        """
        final = self._monitor.final
        accepting = self.accepting_trace()
        if accepting is None:
            return None
        steps = [
            (valuation, transition) for valuation, transition in zip(
                accepting.trace, accepting.path
            )
        ]
        prefix = steps[:-1]
        config = self.config_after([t for _, t in prefix])
        for valuation, transition, _ in self._successors(config):
            if transition.target == final:
                continue
            return self._finish(
                prefix + [(valuation, transition)], "violating",
                "near-miss at final step",
            )
        return None

    def derailing_valuation(
        self, prefix: Sequence[Transition], planned: Transition
    ) -> Optional[Valuation]:
        """An input that fires something *other* than ``planned``.

        ``prefix`` is the transition path leading up to the decision
        point.  Completeness guarantees alternatives exist for most
        configurations; an edge whose target differs from the planned
        one is preferred (it provably derails the run, not just the
        edge).  Fault campaigns splice the result into an accepting
        trace to manufacture a violation at an exact tick.
        """
        config = self.config_after(prefix)
        fallback: Optional[Valuation] = None
        for valuation, transition, _ in self._successors(config):
            if transition == planned:
                continue
            if transition.target != planned.target:
                return valuation
            if fallback is None:
                fallback = valuation
        return fallback

    def trace_to_state(self, state: int) -> Optional[DirectedTrace]:
        """The shortest trace whose run visits ``state``."""
        if not (0 <= state < self._monitor.n_states):
            raise CampaignError(
                f"state {state} outside 0..{self._monitor.n_states - 1}"
            )
        reach = self._explore()
        config = reach.first_state.get(state)
        if config is None:
            return None
        steps = self._path_to(config, reach)
        return self._finish(steps, "state", f"reach state {state}")

    def trace_through(self, transition: Transition) -> Optional[DirectedTrace]:
        """The shortest trace whose run takes ``transition``."""
        reach = self._explore()
        hit = reach.first_edge.get(transition)
        if hit is None:
            return None
        config, step = hit
        steps = self._path_to(config, reach) + [step]
        return self._finish(
            steps, "transition",
            f"take {transition.source}->{transition.target}",
        )

    # -- search ----------------------------------------------------------
    def _explore(self) -> _Reachability:
        """One exhaustive BFS pass over configurations (memoized)."""
        if self._reach is not None:
            return self._reach
        reach = _Reachability()
        initial: _Config = (self._monitor.initial, ())
        reach.parents[initial] = None
        reach.first_state[self._monitor.initial] = initial
        reach.states.add(self._monitor.initial)
        frontier: List[_Config] = [initial]
        depth = 0
        while frontier and depth < self._max_depth:
            next_frontier: List[_Config] = []
            for config in frontier:
                for valuation, transition, successor in self._successors(
                    config
                ):
                    if transition not in reach.first_edge:
                        reach.first_edge[transition] = (
                            config, (valuation, transition)
                        )
                        reach.transitions.add(transition)
                    if successor in reach.parents:
                        continue
                    if len(reach.parents) >= self._max_configs:
                        reach.truncated = True
                        continue
                    reach.parents[successor] = (
                        config, (valuation, transition)
                    )
                    state = successor[0]
                    if state not in reach.first_state:
                        reach.first_state[state] = successor
                        reach.states.add(state)
                    next_frontier.append(successor)
            frontier = next_frontier
            depth += 1
        if frontier:
            reach.truncated = True
        self._reach = reach
        return reach

    def _successors(
        self, config: _Config
    ) -> Iterable[Tuple[Valuation, Transition, _Config]]:
        """Enabled edges of ``config``: (input, transition, successor).

        At most one representative input per distinct transition — the
        automaton is deterministic, so any witness valuation is as good
        as any other for reaching the edge.
        """
        state, sb_key = config
        counts = dict(sb_key)
        edges = (
            self._compiled_edges(state, counts) if self._is_compiled
            else self._interpreted_edges(state, counts)
        )
        for valuation, transition in edges:
            successor_counts = self._apply_actions(counts, transition.actions)
            if successor_counts is None:
                # A Del_evt below zero: the strict scoreboard would
                # raise on replay, so the edge is not usable here.
                continue
            yield valuation, transition, (transition.target,
                                          tuple(sorted(
                                              successor_counts.items())))

    def _interpreted_edges(
        self, state: int, counts: Dict[str, int]
    ) -> Iterable[_Step]:
        for transition in self._monitor.transitions_from(state):
            checks = scoreboard_checks_of(transition.guard)
            chk_true = frozenset(
                e for e in checks if counts.get(e, 0) > 0
            )
            chk_false = frozenset(checks) - chk_true
            key = (transition.guard, chk_true, chk_false)
            if key in self._solve_cache:
                valuation = self._solve_cache[key]
            else:
                valuation = satisfying_valuation(
                    [transition.guard], self._order,
                    chk_true=chk_true, chk_false=chk_false,
                )
                self._solve_cache[key] = valuation
            if valuation is not None:
                yield valuation, transition

    def _compiled_edges(
        self, state: int, counts: Dict[str, int]
    ) -> Iterable[_Step]:
        plain, ladders = self._rows[state]
        seen: Set[Transition] = set()
        for mask, transition in plain:
            if transition not in seen:
                seen.add(transition)
                yield self._monitor.codec.decode(mask), transition
        if ladders:
            scoreboard = Scoreboard()
            scoreboard.restore(counts)
            for mask in ladders:
                transition = self._monitor.cell(state, mask)
                if isinstance(transition, tuple):
                    transition = self._resolve_ladder(
                        transition, mask, scoreboard
                    )
                if transition is not None and transition not in seen:
                    seen.add(transition)
                    yield self._monitor.codec.decode(mask), transition

    def _resolve_ladder(self, rungs, mask: int,
                        scoreboard: Scoreboard) -> Optional[Transition]:
        for check, transition in rungs:
            if check is None or check(mask, scoreboard):
                return transition
        return None

    @staticmethod
    def _index_table(monitor: CompiledMonitor):
        """Per state: unconditional (mask, transition) representatives
        plus the masks holding scoreboard-dependent ladders."""
        rows = []
        for state in monitor.states:
            plain: List[Tuple[int, Transition]] = []
            plain_seen: Set[Transition] = set()
            ladders: List[int] = []
            for mask in monitor.codec.all_masks():
                cell = monitor.cell(state, mask)
                if cell is None:
                    continue
                if isinstance(cell, tuple):
                    ladders.append(mask)
                elif cell not in plain_seen:
                    plain_seen.add(cell)
                    plain.append((mask, cell))
            rows.append((plain, ladders))
        return rows

    def _apply_actions(self, counts: Dict[str, int],
                       actions: Sequence) -> Optional[Dict[str, int]]:
        result = dict(counts)
        for action in actions:
            if isinstance(action, AddEvt):
                for event in action.events:
                    result[event] = min(result.get(event, 0) + 1, self._cap)
            elif isinstance(action, DelEvt):
                for event in action.events:
                    current = result.get(event, 0)
                    if current <= 0:
                        return None
                    if current == 1:
                        del result[event]
                    else:
                        result[event] = current - 1
        return result

    # -- path reconstruction ---------------------------------------------
    def _path_to(self, config: _Config, reach: _Reachability) -> List[_Step]:
        steps: List[_Step] = []
        cursor = config
        while True:
            parent = reach.parents[cursor]
            if parent is None:
                break
            cursor, step = parent
            steps.append(step)
        steps.reverse()
        return steps

    def _depth_of(self, config: _Config, reach: _Reachability) -> int:
        depth = 0
        cursor = config
        while reach.parents[cursor] is not None:
            cursor = reach.parents[cursor][0]
            depth += 1
        return depth

    def config_after(self, transitions: Sequence[Transition]) -> _Config:
        """The ``(state, scoreboard)`` configuration a path ends in."""
        config: _Config = (self._monitor.initial, ())
        for transition in transitions:
            counts = self._apply_actions(dict(config[1]), transition.actions)
            if counts is None:
                raise CampaignError(
                    f"monitor {self._monitor.name!r}: path deletes an "
                    f"event the scoreboard does not hold"
                )
            config = (transition.target, tuple(sorted(counts.items())))
        return config

    # -- realisation -------------------------------------------------------
    def _finish(self, steps: List[_Step], kind: str,
                label: str) -> DirectedTrace:
        """Materialise a step list and verify it by replay.

        The replay (through the real engine for this monitor form) must
        take exactly the planned transitions; the scoreboard cap is an
        abstraction, so a divergence means the cap was too small for
        this automaton — surfaced as an error, never as a silently
        wrong prediction.
        """
        trace = Trace([valuation for valuation, _ in steps], self._order)
        planned = [transition for _, transition in steps]
        engine = (
            CompiledEngine(self._monitor) if self._is_compiled
            else MonitorEngine(self._monitor)
        )
        try:
            engine.feed(trace)
        except ScoreboardError as error:
            raise CampaignError(
                f"monitor {self._monitor.name!r}: synthesized path is not "
                f"replayable ({error}); raise scoreboard_cap"
            )
        if engine.transition_log != planned:
            raise CampaignError(
                f"monitor {self._monitor.name!r}: replay diverged from the "
                f"synthesized path; raise scoreboard_cap "
                f"(cap={self._cap})"
            )
        return DirectedTrace(
            trace, tuple(planned), kind,
            tuple(engine.result().detections), label,
        )
