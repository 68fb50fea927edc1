"""Hand-written monitors: the manual-development baseline of Figure 4.

The paper motivates automated synthesis by the cost and error-proneness
of writing monitors by hand.  These checkers are written the way a
verification engineer would write them in a native language — explicit
state variables, if/else ladders — and come in a *correct* and a
*buggy* variant each.  The buggy variants contain realistic slips
(an off-by-one phase check, a forgotten re-arm) that the flow benchmark
exposes by differencing against the synthesized monitor.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "ManualAhbMonitor": "repro.baselines.manual.amba_manual",
    "ManualAhbMonitorBuggy": "repro.baselines.manual.amba_manual",
    "ManualOcpBurstMonitor": "repro.baselines.manual.ocp_manual",
    "ManualOcpReadMonitor": "repro.baselines.manual.ocp_manual",
    "ManualOcpReadMonitorBuggy": "repro.baselines.manual.ocp_manual",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
