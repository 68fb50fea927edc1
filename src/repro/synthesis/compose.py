"""Synthesis for composite charts: pattern algebra + monitor banks.

"The algorithm constructs localized monitors for every SCESC, which
are then combined using various composition operations."  For the
synchronous constructs the combination happens at the *pattern* level
(:func:`~repro.synthesis.pattern.flatten_chart`): sequential
composition concatenates patterns, synchronous parallel conjoins them
tick-wise, bounded loops unroll.  Constructs denoting several scenario
shapes (``Alt``, unbounded ``Loop``) yield a *bank* of monitors — one
per alternative — run side by side; a detection by any member is a
detection of the composite scenario.

Asynchronous composition is handled separately by
:mod:`repro.synthesis.multiclock`; implication by
:mod:`repro.monitor.checker`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cesc.charts import Chart, as_chart
from repro.errors import SynthesisError
from repro.monitor.automaton import Monitor
from repro.monitor.scoreboard import Scoreboard
from repro.runtime.compiled import MonitorResult
from repro.semantics.run import Trace
from repro.synthesis.pattern import FlatPattern, flatten_chart
from repro.synthesis.symbolic import symbolic_monitor
from repro.synthesis.dense import synthesize_monitor

__all__ = ["MonitorBank", "BankResult", "synthesize_chart"]


class BankResult:
    """Aggregated outcome of running a monitor bank over a trace."""

    def __init__(self, results: Sequence[MonitorResult]):
        self.results = list(results)

    @property
    def detections(self) -> List[int]:
        """Sorted, deduplicated detection ticks across all members."""
        ticks = sorted({t for r in self.results for t in r.detections})
        return ticks

    @property
    def accepted(self) -> bool:
        return any(r.accepted for r in self.results)

    def __repr__(self):
        return f"BankResult(members={len(self.results)}, detections={self.detections})"


class MonitorBank:
    """A set of monitors jointly detecting a composite scenario.

    Each member owns its own scoreboard (alternatives are independent
    matching attempts); a shared scoreboard can be injected for
    multi-clock use.
    """

    def __init__(self, name: str,
                 members: Sequence[Tuple[FlatPattern, Monitor]]):
        if not members:
            raise SynthesisError(f"monitor bank {name!r} has no members")
        self.name = name
        self.members = list(members)
        self._compiled: Optional[List["CompiledMonitor"]] = None

    @property
    def monitors(self) -> List[Monitor]:
        return [monitor for _, monitor in self.members]

    @property
    def patterns(self) -> List[FlatPattern]:
        return [pattern for pattern, _ in self.members]

    def total_states(self) -> int:
        return sum(m.n_states for m in self.monitors)

    def total_transitions(self) -> int:
        return sum(m.transition_count() for m in self.monitors)

    def compiled_members(self) -> List["CompiledMonitor"]:
        """Each member's monitor lowered to dense table dispatch.

        Compilation happens on first use and is memoized — banks are
        long-lived relative to the traces they scan, so the cost is
        paid once per bank, not per run.
        """
        from repro.runtime.compiled import compile_monitor

        if self._compiled is None:
            self._compiled = [
                compile_monitor(monitor) for _, monitor in self.members
            ]
        return self._compiled

    def run(self, trace: Trace,
            scoreboards: Optional[Sequence[Scoreboard]] = None,
            engine: str = "interpreted") -> BankResult:
        """Run every member over ``trace`` and merge detections.

        ``engine`` selects the backend: ``"interpreted"`` walks guard
        trees (the reference semantics); ``"compiled"`` dispatches on
        the memoized dense tables — identical results, much faster.
        """
        if scoreboards is not None and len(scoreboards) != len(self.members):
            raise SynthesisError(
                "one scoreboard per bank member is required when provided"
            )
        from repro.runtime.engines import resolve_step_backend

        backend = resolve_step_backend(engine, error_cls=SynthesisError)
        stepped = (self.compiled_members() if backend.wants_compiled
                   else [monitor for _, monitor in self.members])
        engines = [
            backend.make_engine(
                member,
                scoreboard=(
                    scoreboards[i] if scoreboards is not None else None
                ),
            )
            for i, member in enumerate(stepped)
        ]
        for valuation in trace:
            for eng in engines:
                eng.step(valuation)
        return BankResult([eng.result() for eng in engines])

    def run_batch(self, traces: Sequence[Trace],
                  engine: str = "auto") -> List[BankResult]:
        """Scan many traces with a batch backend.

        Every member monitor is compiled once (memoized) and fed all
        ``traces`` through the registry's batch kernel for ``engine``
        (``"compiled"``: scalar lock-step; ``"native"``: the C
        stepper; ``"auto"``, the default, lets
        :func:`~repro.runtime.engines.plan_execution` pick — identical
        results either way);
        returns one :class:`BankResult` per trace, each identical to
        what ``run(trace)`` would produce.  This is the bulk entry point for
        serving many concurrent scenarios against one specification.
        Each trace is encoded to its mask array once per distinct
        member alphabet (the shared codec cache), not once per member.
        """
        from repro.runtime.engines import Workload, plan_execution

        plan = plan_execution(
            self.compiled_members()[0] if self.members else None,
            Workload.from_traces(traces) if self.members else Workload(),
            engine, capability="batch", error_cls=SynthesisError,
        )
        runner = plan.encoded_runner()
        # Mask arrays are shared *explicitly* across same-alphabet
        # members — one encode per distinct codec per call, robust at
        # any batch size (the bounded encode cache alone thrashes on
        # batches larger than its capacity).
        encoded_by_codec: dict = {}
        per_member = []
        for compiled in self.compiled_members():
            key = compiled.codec.symbols
            masks = encoded_by_codec.get(key)
            if masks is None:
                masks = compiled.codec.encode_many(traces, as_list=True)
                encoded_by_codec[key] = masks
            per_member.append(runner(compiled, masks))
        return [
            BankResult([member[i] for member in per_member])
            for i in range(len(traces))
        ]

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self):
        return f"MonitorBank({self.name!r}, members={len(self.members)})"


def synthesize_chart(
    chart: Chart,
    variant: str = "tr",
    loop_limit: int = 3,
    name: Optional[str] = None,
) -> MonitorBank:
    """Synthesize a monitor bank for a synchronous chart.

    ``variant`` selects the guard representation: ``"tr"`` keeps the
    paper's per-valuation minterm table; ``"symbolic"`` compresses it
    into figure-style labelled edges (behaviourally identical).
    """
    chart = as_chart(chart)
    if variant not in ("tr", "symbolic"):
        raise SynthesisError(f"unknown synthesis variant {variant!r}")
    patterns = flatten_chart(chart, loop_limit=loop_limit)
    members: List[Tuple[FlatPattern, Monitor]] = []
    for index, pattern in enumerate(patterns):
        monitor = synthesize_monitor(pattern)
        if variant == "symbolic":
            monitor = symbolic_monitor(monitor)
        members.append((pattern, monitor))
    return MonitorBank(name or chart.name, members)
