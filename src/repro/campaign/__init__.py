"""Coverage-directed test campaigns over synthesized monitors.

The campaign engine turns a monitor from a passive observer into a
test *oracle that writes its own tests*:

* :mod:`repro.campaign.directed` — graph search over the automaton
  synthesizing shortest accepting / violating / edge-targeting traces,
  each with exact predicted detection ticks;
* :mod:`repro.campaign.closure` — the coverage-closure loop: random
  seeds, then directed traces at every never-taken edge until
  state/transition coverage hits target or a budget expires;
* :mod:`repro.campaign.faults` — fault-mutation campaigns: one
  predicted violation per tick of the scenario spine, plus random
  single-fault mutants, executed in batches and checked against their
  predictions.

Exposed on the CLI as ``repro campaign``.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "CampaignReport": "repro.campaign.closure",
    "CorpusEntry": "repro.campaign.closure",
    "CoverageCampaign": "repro.campaign.closure",
    "DirectedTrace": "repro.campaign.directed",
    "FaultMutationCampaign": "repro.campaign.faults",
    "FaultReport": "repro.campaign.faults",
    "FaultTrial": "repro.campaign.faults",
    "StimulusSynthesizer": "repro.campaign.directed",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
