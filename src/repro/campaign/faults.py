"""Fault-mutation campaigns: provoke violations at exact ticks.

Random fault injection (:class:`~repro.protocols.faults.FaultCampaign`)
answers "does the monitor notice *something*"; a mutation campaign
answers the sharper question "does the monitor notice *this* fault *at
this tick*".  Starting from a directed accepting trace (every tick of
which is a known transition of the automaton), each trial mutates one
tick — either the targeted way, splicing in a
:meth:`~repro.campaign.directed.StimulusSynthesizer.derailing_valuation`
via :func:`~repro.protocols.faults.replace_tick`, or a random
:class:`~repro.protocols.faults.FaultCampaign` single-fault mutation —
and *predicts* the mutant's detection ticks by replaying it through
the reference engine at build time.

:meth:`FaultMutationCampaign.run` then executes all mutants in one
planned batch (:func:`~repro.runtime.engines.plan_execution`) and
checks every observation against its prediction — a mismatch means
the execution backend disagrees with the reference semantics and is
reported as such, not averaged into a detection rate.  A trial is
*killed* when the baseline detection tick disappeared from the
mutant's run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.campaign.directed import DirectedTrace, StimulusSynthesizer
from repro.errors import CampaignError, ScoreboardError
from repro.monitor.engine import CompiledEngine, MonitorEngine
from repro.protocols.faults import FaultCampaign, replace_tick
from repro.runtime.compiled import CompiledMonitor, as_compiled
from repro.runtime.engines import Workload, plan_execution
from repro.semantics.run import Trace

__all__ = ["FaultTrial", "FaultReport", "FaultMutationCampaign"]


class FaultTrial:
    """One mutated trace with its build-time predicted outcome."""

    __slots__ = ("label", "kind", "tick", "trace",
                 "baseline_detections", "predicted_detections")

    def __init__(self, label: str, kind: str, tick: Optional[int],
                 trace: Trace, baseline_detections: Tuple[int, ...],
                 predicted_detections: Tuple[int, ...]):
        self.label = label
        self.kind = kind
        self.tick = tick
        self.trace = trace
        self.baseline_detections = baseline_detections
        self.predicted_detections = predicted_detections

    @property
    def killed(self) -> bool:
        """Did the fault destroy the baseline detection?

        True when the detection tick the un-mutated trace produces is
        absent from the mutant's predicted run.
        """
        return bool(self.baseline_detections) and (
            self.baseline_detections[-1] not in self.predicted_detections
        )

    def __repr__(self):
        return (
            f"FaultTrial({self.label!r}, kind={self.kind!r}, "
            f"tick={self.tick}, killed={self.killed})"
        )


class FaultReport:
    """Executed campaign: kill statistics plus any backend mismatches."""

    def __init__(self, trials: Sequence[FaultTrial],
                 observed: Sequence[Tuple[int, ...]]):
        self.trials = list(trials)
        self.observed = list(observed)
        self.mismatches: List[str] = []
        for trial, seen in zip(self.trials, self.observed):
            if list(seen) != list(trial.predicted_detections):
                self.mismatches.append(
                    f"{trial.label}: predicted "
                    f"{list(trial.predicted_detections)}, observed "
                    f"{list(seen)}"
                )

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_killed(self) -> int:
        return sum(1 for trial in self.trials if trial.killed)

    @property
    def kill_rate(self) -> float:
        if not self.trials:
            return 0.0
        return self.n_killed / len(self.trials)

    @property
    def ok(self) -> bool:
        """Every observation matched its build-time prediction."""
        return not self.mismatches

    def to_json(self):
        return {
            "trials": self.n_trials,
            "killed": self.n_killed,
            "kill_rate": round(self.kill_rate, 4),
            "mismatches": list(self.mismatches),
        }

    def __repr__(self):
        return (
            f"FaultReport(trials={self.n_trials}, killed={self.n_killed}, "
            f"mismatches={len(self.mismatches)})"
        )


class FaultMutationCampaign:
    """Mutate a directed accepting trace, one predicted fault at a time."""

    def __init__(self, monitor, seed: int = 0,
                 synthesizer: Optional[StimulusSynthesizer] = None,
                 scoreboard_cap: int = 8):
        self._monitor = monitor
        self._is_compiled = isinstance(monitor, CompiledMonitor)
        self._synthesizer = synthesizer or StimulusSynthesizer(
            monitor, scoreboard_cap=scoreboard_cap
        )
        self._seed = seed
        self._base: Optional[DirectedTrace] = None

    @property
    def base(self) -> DirectedTrace:
        """The directed accepting trace every mutation starts from."""
        if self._base is None:
            base = self._synthesizer.accepting_trace()
            if base is None:
                raise CampaignError(
                    f"monitor {self._monitor.name!r} has no accepting "
                    f"trace; nothing to mutate"
                )
            self._base = base
        return self._base

    def _replay(self, trace: Trace) -> Optional[Tuple[int, ...]]:
        """Reference detections for ``trace`` (None: not replayable)."""
        engine = (
            CompiledEngine(self._monitor) if self._is_compiled
            else MonitorEngine(self._monitor)
        )
        try:
            engine.feed(trace)
        except ScoreboardError:
            return None
        return tuple(engine.result().detections)

    def build(self, random_mutations: int = 8) -> List[FaultTrial]:
        """All targeted per-tick trials plus ``random_mutations`` extras.

        Targeted trials derail tick ``t`` of the accepting path with a
        valuation that provably fires a different transition; random
        trials draw from the classic drop/insert/delay/swap fault
        model.  Each trial's expected detections come from a reference
        replay at build time; trials whose mutation makes the trace
        unreplayable (strict-scoreboard aborts) are skipped.
        """
        base = self.base
        baseline = base.predicted_detections
        trials: List[FaultTrial] = []
        path = list(base.path)
        for tick in range(len(path)):
            valuation = self._synthesizer.derailing_valuation(
                path[:tick], path[tick]
            )
            if valuation is None:
                continue
            mutated = replace_tick(base.trace, tick, valuation)
            predicted = self._replay(mutated)
            if predicted is None:
                continue
            trials.append(FaultTrial(
                label=f"derail@{tick}", kind="targeted", tick=tick,
                trace=mutated, baseline_detections=baseline,
                predicted_detections=predicted,
            ))
        if random_mutations > 0 and base.trace.length >= 2:
            campaign = FaultCampaign(
                base.trace, sorted(base.trace.alphabet), seed=self._seed
            )
            for index, mutated in enumerate(
                campaign.mutations(random_mutations)
            ):
                predicted = self._replay(mutated)
                if predicted is None:
                    continue
                trials.append(FaultTrial(
                    label=f"random[{index}]", kind="random", tick=None,
                    trace=mutated, baseline_detections=baseline,
                    predicted_detections=predicted,
                ))
        return trials

    def run(self, trials: Optional[Sequence[FaultTrial]] = None,
            random_mutations: int = 8) -> FaultReport:
        """Execute the trials in a batch and report kills + mismatches."""
        if trials is None:
            trials = self.build(random_mutations=random_mutations)
        traces = [trial.trace for trial in trials]
        compiled = as_compiled(self._monitor)
        plan = plan_execution(compiled, Workload.from_traces(traces))
        results = plan.batch_runner()(compiled, traces)
        return FaultReport(
            trials, [tuple(result.detections) for result in results]
        )
