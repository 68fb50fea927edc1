"""Seeded inputs and reference verdicts for the end-to-end benchmark.

Everything a workload feeds the program is built here from the
workload seed, before any timing starts:

* spec files for the OCP simple-read and AMBA AHB charts, written with
  ``scesc_to_dsl`` (the repo ships no AHB ``.cesc``);
* traces composed of ``repro.protocols.fixtures`` scenario windows
  padded with uniform bus noise — every dump, stream and corpus lane
  draws its own windows and noise, never ``[base] * width``;
* VCD dumps written by ``trace_to_vcd(trace, clock="clk")``;
* a one-tick dump per chart carrying all of its lanes (start-up probe);
* ``.rtrc`` corpora of distinct lanes for the serve corpus op.

Traces are kept as lists of masks over the sorted chart alphabet —
the same bit order as ``AlphabetCodec`` — so turning them into wire
ticks, valuations or corpus lanes is table lookup.

Reference verdicts come from the interpreted engine over the
symbolic-compressed monitor, ``run_monitor(symbolic_monitor(tr(chart)),
trace)``: an implementation path independent of the compiled, vector
and native kernels every checked command runs on.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Sequence

from repro.cesc.serialize import scesc_to_dsl
from repro.logic.valuation import Valuation
from repro.monitor.engine import run_monitor
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.fixtures import (
    amba_scenario_trace,
    ocp_simple_scenario_trace,
)
from repro.protocols.ocp.charts import ocp_simple_read_chart
from repro.semantics.run import Trace
from repro.synthesis.symbolic import symbolic_monitor
from repro.synthesis.tr import tr
from repro.trace.bridge import trace_to_vcd

CLOCK = "clk"

#: chart key -> (chart factory, fixture scenario-trace factory)
CHARTS = {
    "ocp": (ocp_simple_read_chart, ocp_simple_scenario_trace),
    "ahb": (ahb_transaction_chart, amba_scenario_trace),
}

#: Scenario windows drawn per chart; traces pick from this pool.
POOL_WINDOWS = 64
#: Noise gaps between windows are uniform in [0, MAX_GAP] ticks.
MAX_GAP = 80


class ChartInputs:
    """One chart: its spec file, alphabet, window pool and reference."""

    def __init__(self, key: str, seed: int, workdir: str):
        build_chart, scenario = CHARTS[key]
        chart = build_chart()
        self.name = chart.name
        self.symbols = tuple(sorted(chart.alphabet()))
        self.spec_path = os.path.join(workdir, f"{key}.cesc")
        with open(self.spec_path, "w") as stream:
            stream.write(scesc_to_dsl(chart))
        bit_of = {symbol: 1 << i for i, symbol in enumerate(self.symbols)}
        self.pool = [
            [sum(bit_of[s] for s in valuation.true) for valuation in window]
            for window in (
                scenario(seed=seed * POOL_WINDOWS + i, prefix=0, suffix=0)
                for i in range(POOL_WINDOWS)
            )
        ]
        self.chart = chart
        self._monitor = None
        self._valuations = None

    # -- traces ------------------------------------------------------------
    def compose(self, rng: random.Random, ticks: int) -> List[int]:
        """A fresh trace: noise gaps and pool windows, cut to ``ticks``."""
        width = len(self.symbols)
        out: List[int] = []
        while len(out) < ticks:
            out.extend(rng.getrandbits(width)
                       for _ in range(rng.randint(0, MAX_GAP)))
            out.extend(self.pool[rng.randrange(len(self.pool))])
        del out[ticks:]
        return out

    def symbol_lists(self) -> List[List[str]]:
        """Wire form of every mask: the sorted list of true symbols."""
        return [
            [s for i, s in enumerate(self.symbols) if mask >> i & 1]
            for mask in range(1 << len(self.symbols))
        ]

    def trace(self, masks: Sequence[int]) -> Trace:
        if self._valuations is None:
            self._valuations = [
                Valuation(true, alphabet=self.symbols)
                for true in self.symbol_lists()
            ]
        table = self._valuations
        return Trace([table[mask] for mask in masks], alphabet=self.symbols)

    # -- reference ---------------------------------------------------------
    def reference(self, masks: Sequence[int]) -> List[int]:
        """Detection ticks of the interpreted symbolic monitor."""
        if self._monitor is None:
            self._monitor = symbolic_monitor(tr(self.chart))
        return list(run_monitor(self._monitor, self.trace(masks)).detections)

    # -- VCD ---------------------------------------------------------------
    def write_dump(self, path: str, masks: Sequence[int]) -> None:
        """Write one dump with ``trace_to_vcd(trace, clock="clk")``."""
        with open(path, "w") as stream:
            stream.write(trace_to_vcd(self.trace(masks), clock=CLOCK,
                                      alphabet=self.symbols))

    def one_tick_dump(self, path: str) -> None:
        """A one-tick dump carrying every lane of the chart (all low)."""
        self.write_dump(path, [0])


def charts(seed: int, workdir: str,
           keys=("ocp", "ahb")) -> Dict[str, ChartInputs]:
    return {key: ChartInputs(key, seed, workdir) for key in keys}


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per input family, all derived from seed."""
    return random.Random(f"{seed}:{purpose}")
