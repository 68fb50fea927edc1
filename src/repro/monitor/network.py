"""Multi-clock monitor networks: local monitors + one shared scoreboard.

The network steps each local monitor on its own clock's ticks of a
:class:`~repro.semantics.run.GlobalRun`.  Clock ticks landing at the
same absolute instant are handled *two-phase*, following the
synchronous paradigm: every coincident monitor first selects its
transition against the scoreboard as it stood at the start of the
instant, then all actions commit.  A cause recorded at instant ``t``
is therefore visible to ``Chk_evt`` only strictly after ``t`` — the
strict cross-domain precedence the semantics demands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cesc.ast import Clock
from repro.errors import MonitorError
from repro.monitor.automaton import Monitor
from repro.monitor.engine import MonitorEngine
from repro.monitor.scoreboard import Scoreboard
from repro.semantics.run import GlobalRun

__all__ = ["LocalMonitor", "MonitorNetwork", "NetworkResult"]


class LocalMonitor:
    """A synthesized local monitor bound to its clock domain."""

    __slots__ = ("component", "clock", "monitor")

    def __init__(self, component: str, clock: Clock, monitor: Monitor):
        self.component = component
        self.clock = clock
        self.monitor = monitor

    def __repr__(self):
        return (
            f"LocalMonitor({self.component!r}, clock={self.clock.name}, "
            f"monitor={self.monitor.name!r})"
        )


class NetworkResult:
    """Per-domain detections and the network-level verdict."""

    def __init__(self, detections: Dict[str, List[Fraction]],
                 completed_at: Optional[Fraction]):
        #: component name -> absolute times of local scenario detections.
        self.detections = detections
        #: earliest instant by which every component had detected, if any.
        self.completed_at = completed_at

    @property
    def accepted(self) -> bool:
        """Did every clock domain detect its local scenario?"""
        return self.completed_at is not None

    def __repr__(self):
        return (
            f"NetworkResult(accepted={self.accepted}, "
            f"completed_at={self.completed_at}, "
            f"detections={{{', '.join(f'{k}: {len(v)}' for k, v in self.detections.items())}}})"
        )


class MonitorNetwork:
    """The set of communicating local monitors for one async chart.

    ``optimize=True`` lowers each local monitor through the
    optimization pipeline (minimise + prune + harden) when the
    compiled backend is selected — behaviour, including the two-phase
    scoreboard contract, is unchanged.
    """

    def __init__(self, name: str, locals_: Sequence[LocalMonitor],
                 optimize: bool = False):
        if not locals_:
            raise MonitorError(f"monitor network {name!r} has no members")
        clock_names = [lm.clock.name for lm in locals_]
        duplicates = {c for c in clock_names if clock_names.count(c) > 1}
        if duplicates:
            raise MonitorError(
                f"multiple local monitors share clock(s) {sorted(duplicates)}"
            )
        self.name = name
        self.locals = list(locals_)
        self.optimize = bool(optimize)
        self._compiled_cache: Dict[str, object] = {}

    def _compiled_local(self, local: LocalMonitor):
        """Memoized compiled form of one local monitor."""
        compiled = self._compiled_cache.get(local.clock.name)
        if compiled is None:
            if self.optimize:
                from repro.optimize import optimize_monitor

                compiled = optimize_monitor(local.monitor).compiled
            else:
                from repro.runtime.compiled import compile_monitor

                compiled = compile_monitor(local.monitor)
            self._compiled_cache[local.clock.name] = compiled
        return compiled

    def local_for(self, component: str) -> LocalMonitor:
        for local in self.locals:
            if local.component == component:
                return local
        raise MonitorError(f"no local monitor for component {component!r}")

    def total_states(self) -> int:
        return sum(lm.monitor.n_states for lm in self.locals)

    def total_transitions(self) -> int:
        return sum(lm.monitor.transition_count() for lm in self.locals)

    def run(self, global_run: GlobalRun,
            scoreboard: Optional[Scoreboard] = None,
            engine: str = "interpreted") -> NetworkResult:
        """Execute the network over a global run.

        Each local monitor consumes the valuations of its own clock's
        ticks; simultaneous ticks commit their scoreboard actions
        two-phase (selection against the pre-instant scoreboard).

        ``engine`` selects the stepping backend for every local
        monitor from the registry — any backend honouring the
        two-phase contract (``"interpreted"``: guard-tree walking, the
        reference semantics; ``"compiled"``: dense table dispatch via
        :class:`~repro.runtime.compiled.CompiledEngine`; ``"auto"``
        resolves to compiled).  Results are identical.
        """
        from repro.runtime.engines import resolve_step_backend

        backend = resolve_step_backend(engine, "two_phase",
                                       error_cls=MonitorError)
        shared = scoreboard if scoreboard is not None else Scoreboard()
        engines = {
            lm.clock.name: backend.make_engine(
                self._compiled_local(lm) if backend.wants_compiled
                else lm.monitor,
                scoreboard=shared,
            )
            for lm in self.locals
        }
        component_of = {lm.clock.name: lm.component for lm in self.locals}
        detections: Dict[str, List[Fraction]] = {
            lm.component: [] for lm in self.locals
        }
        completed_at: Optional[Fraction] = None

        for tick in global_run:
            # Phase 1: each coincident monitor picks its transition
            # against the scoreboard as of the start of the instant.
            chosen: List[Tuple[str, MonitorEngine, object]] = []
            for clock_name in sorted(tick.clocks):
                engine = engines.get(clock_name)
                if engine is None:
                    continue
                valuation = tick.valuations[clock_name]
                transition = engine.enabled_transition(valuation)
                chosen.append((clock_name, engine, transition))
            # Phase 2: commit moves and actions.
            for clock_name, engine, transition in chosen:
                engine.commit(transition)
                if transition.target == engine.monitor.final:
                    detections[component_of[clock_name]].append(tick.time)
            if completed_at is None and all(
                detections[lm.component] for lm in self.locals
            ):
                completed_at = tick.time
        return NetworkResult(detections, completed_at)

    def __repr__(self):
        return f"MonitorNetwork({self.name!r}, locals={len(self.locals)})"
