"""Stepping monitors over clocked traces.

"Following the synchronous model of systems, the transitions in a
monitor are instantaneous and a single clock tick separates two
successive transitions."  The engine reads one valuation per tick,
fires the unique enabled transition, applies its scoreboard actions,
and records a *detection* each time the final state is entered — a
completed occurrence of the specified scenario.  The automaton keeps
running after a detection (the paper's transition function is defined
on the final state too), so overlapping/pipelined occurrences are
caught, exactly as in Figure 7.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import MonitorError
from repro.logic.valuation import Valuation
from repro.monitor.automaton import Monitor, Transition
from repro.monitor.scoreboard import Scoreboard
from repro.semantics.run import Trace

__all__ = ["EngineBase", "MonitorEngine", "MonitorResult", "run_monitor"]


class MonitorResult:
    """Outcome of running a monitor over a finite trace."""

    __slots__ = ("monitor_name", "states", "detections", "ticks",
                 "transitions")

    def __init__(self, monitor_name: str, states: List[int],
                 detections: List[int], ticks: int,
                 transitions: Optional[Tuple[Transition, ...]] = None):
        self.monitor_name = monitor_name
        #: state sequence, ``states[0]`` initial, one entry per tick after.
        self.states = states
        #: tick indices (0-based) at which the final state was entered.
        self.detections = detections
        self.ticks = ticks
        #: transitions taken, in tick order — present when the run was
        #: executed with history/transition recording (coverage folding
        #: reads these), ``None`` otherwise.
        self.transitions = transitions

    @property
    def accepted(self) -> bool:
        """Did the scenario occur at least once?"""
        return bool(self.detections)

    @property
    def first_detection(self) -> Optional[int]:
        return self.detections[0] if self.detections else None

    def __repr__(self):
        return (
            f"MonitorResult({self.monitor_name!r}, ticks={self.ticks}, "
            f"detections={self.detections})"
        )


class EngineBase:
    """Shared stepping state machine for both monitor backends.

    Holds the configuration (state, tick, detections, transition log,
    optionally-shared scoreboard) and the ``commit``/``feed``/
    ``result``/``reset`` half of the engine contract.  Subclasses
    provide ``enabled_transition`` — the interpreted engine by walking
    guard trees, the compiled engine by table dispatch — and may
    override ``step`` with a fused fast path.  ``automaton`` is any
    object exposing ``name``/``initial``/``final``.

    ``record_history=False`` turns off the per-tick state history and
    transition log — and the operation log of an engine-owned
    scoreboard — giving O(1) memory per tick regardless of trace
    length: the streaming pipeline runs engines this way and drains
    detections incrementally with :meth:`drain_detections`.
    """

    def __init__(self, automaton, scoreboard: Optional[Scoreboard] = None,
                 record_history: bool = True):
        self._automaton = automaton
        self._owns_scoreboard = scoreboard is None
        self._scoreboard = (scoreboard if scoreboard is not None
                            else Scoreboard(log=record_history))
        self._state = automaton.initial
        self._tick = 0
        self._record_history = record_history
        self._states: List[int] = [automaton.initial]
        self._detections: List[int] = []
        self._transition_log: List[Transition] = []

    # -- observers -------------------------------------------------------
    @property
    def state(self) -> int:
        return self._state

    @property
    def scoreboard(self) -> Scoreboard:
        return self._scoreboard

    @property
    def detections(self) -> List[int]:
        return list(self._detections)

    @property
    def tick(self) -> int:
        return self._tick

    @property
    def transition_log(self) -> List[Transition]:
        """Transitions taken so far, in order (for coverage analysis)."""
        return list(self._transition_log)

    # -- execution ---------------------------------------------------------
    def enabled_transition(self, valuation: Valuation) -> Transition:
        """The unique transition enabled by ``valuation`` right now."""
        raise NotImplementedError

    def commit(self, transition: Transition,
               apply_actions: bool = True) -> int:
        """Take a previously selected transition (two-phase stepping).

        Multi-clock networks select transitions for all coincident
        ticks against the pre-instant scoreboard, then commit them —
        pass ``apply_actions=False`` when the caller sequences the
        scoreboard updates itself.
        """
        if apply_actions:
            for action in transition.actions:
                action.apply(self._scoreboard)
        self._state = transition.target
        if self._record_history:
            self._transition_log.append(transition)
            self._states.append(self._state)
        if self._state == self._automaton.final:
            self._detections.append(self._tick)
        self._tick += 1
        return self._state

    def step(self, valuation: Valuation) -> int:
        """Consume one trace element; return the new state."""
        return self.commit(self.enabled_transition(valuation))

    def feed(self, trace: Iterable[Valuation]) -> "EngineBase":
        for valuation in trace:
            self.step(valuation)
        return self

    def drain_detections(self) -> List[int]:
        """Detections recorded since the last drain (then forgotten).

        Streaming consumers call this once per tick (or batch of ticks)
        so that a monitor observing billions of ticks never accumulates
        an unbounded detection list inside the engine.
        """
        drained = self._detections
        self._detections = []
        return drained

    def result(self) -> MonitorResult:
        """The run's outcome (requires ``record_history=True``).

        A history-free engine cannot produce a faithful result — its
        state sequence was never recorded and detections may have been
        drained — so asking for one is an error, not silently wrong
        data.  Streaming consumers read ``drain_detections`` instead.
        """
        if not self._record_history:
            raise MonitorError(
                f"monitor {self._automaton.name!r}: result() needs "
                f"record_history=True; streaming engines report through "
                f"drain_detections()"
            )
        return MonitorResult(
            self._automaton.name, list(self._states),
            list(self._detections), self._tick,
            transitions=tuple(self._transition_log),
        )

    def reset(self) -> None:
        """Return to the initial configuration.

        An injected (shared) scoreboard is left untouched — only an
        engine-owned scoreboard is cleared, so resetting one engine of
        a multi-clock network cannot wipe its peers' causality state.
        """
        self._state = self._automaton.initial
        self._tick = 0
        self._states = [self._automaton.initial]
        self._detections = []
        self._transition_log = []
        if self._owns_scoreboard:
            self._scoreboard.clear()


class MonitorEngine(EngineBase):
    """Incremental monitor execution with an (optionally shared) scoreboard."""

    def __init__(self, monitor: Monitor,
                 scoreboard: Optional[Scoreboard] = None,
                 record_history: bool = True):
        super().__init__(monitor, scoreboard, record_history=record_history)
        self._monitor = monitor

    @property
    def monitor(self) -> Monitor:
        return self._monitor

    def enabled_transition(self, valuation: Valuation) -> Transition:
        """The unique transition enabled by ``valuation`` right now."""
        enabled = [
            t
            for t in self._monitor.transitions_from(self._state)
            if t.guard.evaluate(valuation, self._scoreboard)
        ]
        if not enabled:
            raise MonitorError(
                f"monitor {self._monitor.name!r}: no transition enabled in "
                f"state {self._state} on input {valuation!r} "
                f"(scoreboard {self._scoreboard!r})"
            )
        if len(enabled) > 1:
            targets = {(t.target, t.actions) for t in enabled}
            if len(targets) > 1:
                raise MonitorError(
                    f"monitor {self._monitor.name!r}: nondeterministic in "
                    f"state {self._state} on input {valuation!r}: "
                    f"{[t.label() for t in enabled]}"
                )
        return enabled[0]


def run_monitor(monitor: Monitor, trace: Trace,
                scoreboard: Optional[Scoreboard] = None) -> MonitorResult:
    """Run ``monitor`` over the whole ``trace`` and return the result.

    A detection at tick ``i`` means the window ``[i - n + 1, i]`` of the
    trace realised the scenario (``n`` being the chart's tick count).
    """
    engine = MonitorEngine(monitor, scoreboard=scoreboard)
    engine.feed(trace)
    return engine.result()
