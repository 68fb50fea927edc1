"""Open Core Protocol (OCP) models and charts.

Covers the two OCP scenarios the paper synthesizes monitors for:

* the simple read (OCP specification v1.0 p.44 — Figure 6): a request
  grid line ``MCmd_rd & Addr & SCmd_accept`` followed by a response
  grid line ``SResp & SData``;
* the pipelined burst-of-4 read (p.49 — Figure 7): four back-to-back
  read commands with decreasing burst counts, responses streaming in
  while later commands issue, tracked on the scoreboard as a multiset.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "OCP_EVENTS": "repro.protocols.ocp.charts",
    "OcpMaster": "repro.protocols.ocp.master",
    "OcpSignals": "repro.protocols.ocp.signals",
    "OcpSlave": "repro.protocols.ocp.slave",
    "ocp_burst_read_chart": "repro.protocols.ocp.charts",
    "ocp_simple_read_chart": "repro.protocols.ocp.charts",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
