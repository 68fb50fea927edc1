"""The coverage-closure loop: random seeds, then directed pressure.

A :class:`CoverageCampaign` connects the pieces the repo already had
but never wired together: :class:`~repro.semantics.generator.TraceGenerator`
randomness, :class:`~repro.analysis.coverage.MonitorCoverage`
accounting, and the planned batch runner
(:func:`~repro.runtime.engines.plan_execution`) — and closes the loop
with the :class:`~repro.campaign.directed.StimulusSynthesizer`:

1. *Exclude the impossible.*  One reachability pass proves which
   states/edges no run can ever exercise (``Tr`` completes the
   transition function over all scoreboard valuations, so dead edges
   are normal); they leave the coverage goal and are reported
   separately.
2. *Seed.*  A batch of random traces (satisfying windows, near-miss
   violations, noise) is executed and folded into coverage — cheap
   breadth first.
3. *Close.*  While coverage is below target and budget remains, every
   never-taken edge (then every unvisited state) becomes a directed
   trace — the shortest run provably taking it — executed in batches
   and folded back in.

Every directed trace carries the detection ticks its synthesis
predicted; the loop cross-checks the executed results against those
predictions, so a campaign run doubles as a differential test of the
execution backend it used.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.coverage import MonitorCoverage
from repro.campaign.directed import DirectedTrace, StimulusSynthesizer
from repro.cesc.charts import Chart, as_chart
from repro.errors import CampaignError
from repro.logic.valuation import Valuation
from repro.monitor.automaton import Monitor
from repro.runtime.compiled import CompiledMonitor, as_compiled
from repro.runtime.engines import Workload, plan_execution
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace
from repro.synthesis.tr import tr_compiled
from repro.trace.bridge import trace_to_vcd

__all__ = ["CorpusEntry", "CampaignReport", "CoverageCampaign"]


class CorpusEntry:
    """One executed campaign trace and what the monitor did with it."""

    __slots__ = ("label", "kind", "trace", "detections")

    def __init__(self, label: str, kind: str, trace: Trace,
                 detections: Tuple[int, ...]):
        self.label = label
        self.kind = kind
        self.trace = trace
        self.detections = detections

    def __repr__(self):
        return (
            f"CorpusEntry({self.label!r}, kind={self.kind!r}, "
            f"ticks={self.trace.length}, detections={list(self.detections)})"
        )


class CampaignReport:
    """Outcome of one closure run: coverage, corpus, and bookkeeping."""

    def __init__(self, name: str, reached: bool, coverage: MonitorCoverage,
                 targets: Tuple[float, float], rounds: int,
                 traces_executed: int, ticks_executed: int,
                 directed_traces: int, corpus: List[CorpusEntry],
                 budget: int, exploration_exhaustive: bool = True):
        self.name = name
        self.reached = reached
        self.coverage = coverage
        #: False when the reachability search hit its depth/config
        #: bounds: nothing was excluded as unreachable (a truncated
        #: search proves nothing), so closure may be unreachable in
        #: principle — raise scoreboard_cap/max_depth to decide.
        self.exploration_exhaustive = exploration_exhaustive
        self.target_state_coverage, self.target_transition_coverage = targets
        self.rounds = rounds
        self.traces_executed = traces_executed
        self.ticks_executed = ticks_executed
        self.directed_traces = directed_traces
        self.corpus = corpus
        self.budget = budget

    @property
    def state_coverage(self) -> float:
        return self.coverage.state_coverage()

    @property
    def transition_coverage(self) -> float:
        return self.coverage.transition_coverage()

    def to_json(self) -> Dict[str, object]:
        """A JSON-serialisable summary (corpus traces elided to stats)."""
        return {
            "monitor": self.name,
            "reached": self.reached,
            "state_coverage": round(self.state_coverage, 4),
            "transition_coverage": round(self.transition_coverage, 4),
            "target_state_coverage": self.target_state_coverage,
            "target_transition_coverage": self.target_transition_coverage,
            "rounds": self.rounds,
            "budget": self.budget,
            "exploration_exhaustive": self.exploration_exhaustive,
            "traces_executed": self.traces_executed,
            "ticks_executed": self.ticks_executed,
            "directed_traces": self.directed_traces,
            "excluded_states": self.coverage.excluded_states,
            "excluded_transition_count":
                len(self.coverage.excluded_transitions),
            "uncovered_states": self.coverage.uncovered_states(),
            "uncovered_transition_count":
                len(self.coverage.uncovered_transitions()),
            "corpus": [
                {
                    "label": entry.label,
                    "kind": entry.kind,
                    "ticks": entry.trace.length,
                    "detections": list(entry.detections),
                }
                for entry in self.corpus
            ],
        }

    def export_vcd(self, directory, clock: str = "clk") -> List[str]:
        """Write the corpus as VCD dumps (one file per trace).

        Returns the written paths.  Empty traces are skipped — a VCD
        dump of zero ticks has no meaning for a waveform viewer.
        """
        os.makedirs(directory, exist_ok=True)
        written: List[str] = []
        for index, entry in enumerate(self.corpus):
            if entry.trace.length == 0:
                continue
            path = os.path.join(
                directory, f"{self.name}_{index:04d}_{entry.kind}.vcd"
            )
            with open(path, "w") as stream:
                stream.write(trace_to_vcd(entry.trace, clock=clock))
            written.append(path)
        return written

    def export_columnar(self, path,
                        alphabet: Optional[Sequence[str]] = None) -> str:
        """Write the whole corpus as one pre-encoded ``.rtrc`` file.

        The columnar twin of :meth:`export_vcd`: one mask stream per
        corpus trace (empty traces included — their lengths are part
        of the record), encoded against ``alphabet`` (default: the
        union of the corpus alphabets, which for a campaign is the
        monitor's own).  Re-checking the corpus then reads mask arrays
        straight off disk — no VCD round-trip, no re-encoding.
        """
        from repro.trace.columnar import ColumnarTraceSet

        traces = [entry.trace for entry in self.corpus]
        columns = ColumnarTraceSet.from_traces(
            traces, alphabet=alphabet, meta={
                "campaign": self.name,
                "labels": [entry.label for entry in self.corpus],
                "kinds": [entry.kind for entry in self.corpus],
                "detections": [
                    list(entry.detections) for entry in self.corpus
                ],
            },
        )
        return columns.save(path)

    def __repr__(self):
        return (
            f"CampaignReport({self.name!r}, reached={self.reached}, "
            f"states={self.state_coverage:.0%}, "
            f"transitions={self.transition_coverage:.0%}, "
            f"traces={self.traces_executed})"
        )


class CoverageCampaign:
    """Drive a monitor's state/transition coverage to closure.

    ``spec`` may be a chart (an :class:`~repro.cesc.ast.SCESC` or
    single-leaf :class:`~repro.cesc.charts.Chart`) — the monitor is
    synthesized with :func:`~repro.synthesis.tr.tr_compiled` and seeds
    come from a :class:`~repro.semantics.generator.TraceGenerator` —
    or a ready :class:`~repro.monitor.automaton.Monitor` /
    :class:`~repro.runtime.compiled.CompiledMonitor` (seeds then fall
    back to directed noise over the monitor's own alphabet).  Batches
    run in this process through the planned batch runner.
    """

    def __init__(self, spec, monitor=None, seed: int = 0,
                 noise_density: float = 0.3,
                 scoreboard_cap: int = 8,
                 max_depth: Optional[int] = None):
        self._generator: Optional[TraceGenerator] = None
        if isinstance(spec, (Monitor, CompiledMonitor)):
            if monitor is not None:
                raise CampaignError(
                    "pass either a chart with an optional monitor, or a "
                    "monitor alone"
                )
            self._monitor = spec
        else:
            chart = as_chart(spec) if not isinstance(spec, Chart) else spec
            self._generator = TraceGenerator(
                chart, seed=seed, noise_density=noise_density
            )
            if monitor is None:
                leaves = chart.leaves()
                if len(leaves) != 1:
                    raise CampaignError(
                        "campaigns over composite charts need an explicit "
                        "monitor (banks are not a single automaton)"
                    )
                monitor = tr_compiled(leaves[0])
            self._monitor = monitor
        self._seed = seed
        self._noise_density = noise_density
        self._synthesizer = StimulusSynthesizer(
            self._monitor, scoreboard_cap=scoreboard_cap, max_depth=max_depth
        )

    @property
    def monitor(self):
        return self._monitor

    @property
    def synthesizer(self) -> StimulusSynthesizer:
        return self._synthesizer

    # -- execution --------------------------------------------------------
    def _execute(self, traces: Sequence[Trace]):
        compiled = as_compiled(self._monitor)
        plan = plan_execution(compiled, Workload.from_traces(traces))
        return plan.batch_runner()(compiled, traces,
                                   record_transitions=True)

    def _seed_traces(self, count: int) -> List[Trace]:
        if count <= 0:
            return []
        if self._generator is not None:
            return self._generator.seed_corpus(count)
        # Monitor-only campaigns: seeded noise over the monitor's own
        # alphabet (no chart means no scenario window to embed).
        import random

        rng = random.Random(self._seed)
        density = self._noise_density
        order = tuple(sorted(self._monitor.alphabet))
        traces = []
        for _ in range(count):
            traces.append(Trace(
                [
                    Valuation({s for s in order if rng.random() < density},
                              order)
                    for _ in range(8)
                ],
                order,
            ))
        return traces

    # -- the closure loop --------------------------------------------------
    def run(self, target_state_coverage: float = 1.0,
            target_transition_coverage: float = 1.0,
            budget: int = 256, seed_traces: int = 12,
            directed_per_round: int = 16,
            max_rounds: int = 64) -> CampaignReport:
        """Seed, then target never-taken edges until closure or budget.

        ``budget`` bounds the *total* number of traces executed (seed
        plus directed).  The loop stops early when the coverage targets
        are met, when the budget is spent, or when no open target can
        be synthesized any more (the report then shows
        ``reached=False`` and what stayed open).
        """
        if budget <= 0:
            raise CampaignError(f"budget must be positive (got {budget})")
        coverage = MonitorCoverage(self._monitor)
        coverage.exclude_states(self._synthesizer.unreachable_states())
        coverage.exclude_transitions(
            self._synthesizer.unreachable_transitions()
        )
        corpus: List[CorpusEntry] = []
        executed = 0
        ticks = 0
        directed_count = 0
        rounds = 0

        def met() -> bool:
            return (
                coverage.state_coverage() >= target_state_coverage
                and coverage.transition_coverage()
                >= target_transition_coverage
            )

        def fold(traces, labels, kinds, predicted=None):
            nonlocal executed, ticks
            results = self._execute(traces)
            for index, result in enumerate(results):
                coverage.record_result(result)
                executed += 1
                ticks += result.ticks
                if predicted is not None and (
                    list(result.detections) != list(predicted[index])
                ):
                    raise CampaignError(
                        f"directed trace {labels[index]!r} predicted "
                        f"detections {list(predicted[index])} but execution "
                        f"observed {result.detections} — execution backend "
                        f"disagrees with the automaton walk"
                    )
                corpus.append(CorpusEntry(
                    labels[index], kinds[index], traces[index],
                    tuple(result.detections),
                ))

        seeds = self._seed_traces(min(seed_traces, budget))
        if seeds:
            fold(seeds, [f"seed[{i}]" for i in range(len(seeds))],
                 ["seed"] * len(seeds))

        while not met() and executed < budget and rounds < max_rounds:
            rounds += 1
            worklist = coverage.never_taken()
            directed: List[DirectedTrace] = []
            for transition in worklist["transitions"]:
                if len(directed) >= directed_per_round:
                    break
                witness = self._synthesizer.trace_through(transition)
                if witness is not None:
                    directed.append(witness)
            if len(directed) < directed_per_round:
                for state in worklist["states"]:
                    if len(directed) >= directed_per_round:
                        break
                    witness = self._synthesizer.trace_to_state(state)
                    if witness is not None and witness.trace.length > 0:
                        directed.append(witness)
            directed = directed[:max(0, budget - executed)]
            if not directed:
                break
            directed_count += len(directed)
            fold(
                [d.trace for d in directed],
                [d.label for d in directed],
                [d.kind for d in directed],
                predicted=[d.predicted_detections for d in directed],
            )

        return CampaignReport(
            name=self._monitor.name,
            reached=met(),
            coverage=coverage,
            targets=(target_state_coverage, target_transition_coverage),
            rounds=rounds,
            traces_executed=executed,
            ticks_executed=ticks,
            directed_traces=directed_count,
            corpus=corpus,
            budget=budget,
            exploration_exhaustive=(
                self._synthesizer.exploration_exhaustive()
            ),
        )

