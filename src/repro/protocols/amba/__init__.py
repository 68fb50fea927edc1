"""AMBA AHB Cycle-Level-Interface (CLI) models and chart (Figure 8).

The paper's third case study: the master/bus transaction sequence of
AHB CLI specification p.23, ten interface events grouped on three grid
lines with causality arrows on the transaction-start and data-phase
events.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "AHB_EVENTS": "repro.protocols.amba.charts",
    "AhbBus": "repro.protocols.amba.models",
    "AhbMaster": "repro.protocols.amba.models",
    "AhbSignals": "repro.protocols.amba.models",
    "ahb_transaction_chart": "repro.protocols.amba.charts",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
