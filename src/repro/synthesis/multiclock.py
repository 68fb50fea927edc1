"""Multi-clock monitor synthesis: one local monitor per clock domain.

"An important feature of the procedure is that the monitor synthesized
consists of a number of local monitors one for each clock domain in
the given input CESC specification; the monitors communicate and
synchronize with each other exchanging the information about the local
states using a scoreboard-like data structure."  (Section 1)

For an :class:`~repro.cesc.charts.AsyncPar` composition, every
component chart is synthesized with ``Tr`` over its own clock; each
cross-domain causality arrow contributes

* an ``Add_evt(cause)`` on the *source* domain's forward transition at
  the cause tick (``extra_adds``), and
* a ``Chk_evt(cause)`` guard on the *target* domain's matching of the
  effect tick (``extra_checks``).

The resulting :class:`~repro.monitor.network.MonitorNetwork` runs the
local monitors against a global run, stepping each on its own clock's
ticks, with one shared scoreboard as the synchronisation medium.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cesc.charts import AsyncPar
from repro.errors import SynthesisError
from repro.monitor.network import LocalMonitor, MonitorNetwork
from repro.synthesis.pattern import extract_pattern
from repro.synthesis.symbolic import symbolic_monitor
from repro.synthesis.dense import synthesize_monitor

__all__ = ["synthesize_network"]


def synthesize_network(
    chart: AsyncPar,
    variant: str = "tr",
    name: Optional[str] = None,
) -> MonitorNetwork:
    """Build the local-monitor network for an asynchronous composition."""
    if not isinstance(chart, AsyncPar):
        raise SynthesisError(
            "synthesize_network requires an AsyncPar chart; synchronous "
            "charts go through synthesize_chart"
        )
    if variant not in ("tr", "symbolic"):
        raise SynthesisError(f"unknown synthesis variant {variant!r}")

    extra_adds: Dict[str, Dict[int, Set[str]]] = {}
    extra_checks: Dict[str, Dict[int, Set[str]]] = {}
    for arrow in chart.cross_arrows:
        adds = extra_adds.setdefault(arrow.source_chart, {})
        adds.setdefault(arrow.cause.tick_index, set()).add(arrow.cause.event)
        checks = extra_checks.setdefault(arrow.target_chart, {})
        checks.setdefault(arrow.effect.tick_index, set()).add(
            arrow.cause.event
        )

    locals_: List[LocalMonitor] = []
    for child in chart.children:
        leaves = child.leaves()
        if len(leaves) != 1:
            raise SynthesisError(
                f"async component {child.name!r} must be a single SCESC "
                "(flatten composite components first)"
            )
        leaf = leaves[0]
        clocks = child.clocks()
        clock = next(iter(clocks))
        pattern = extract_pattern(leaf)
        adds = {
            tick: frozenset(events)
            for tick, events in extra_adds.get(child.name, {}).items()
        }
        checks = {
            tick: frozenset(events)
            for tick, events in extra_checks.get(child.name, {}).items()
        }
        monitor = synthesize_monitor(
            pattern,
            name=f"{child.name}@{clock.name}",
            extra_adds=adds or None,
            extra_checks=checks or None,
        )
        if variant == "symbolic":
            monitor = symbolic_monitor(monitor)
        locals_.append(LocalMonitor(child.name, clock, monitor))
    return MonitorNetwork(name or chart.name, locals_)
