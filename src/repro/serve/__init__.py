"""Monitor-as-a-service: a long-running async checking server.

Everything else in the package is batch CLI — synthesize, check,
exit.  :mod:`repro.serve` keeps the expensive part (synthesizing and
compiling a monitor bank) resident in one process and multiplexes
many concurrent trace streams through it over a tiny newline-delimited
JSON protocol, with bounded-memory backpressure per stream and
health/metrics endpoints for the ops loop.

Layering (one module per concern):

* :mod:`repro.serve.protocol` — wire framing: request decoding,
  response encoding, payload validation, size limits;
* :mod:`repro.serve.metrics` — process-wide counters and the
  ``/health`` / ``/metrics`` snapshots;
* :mod:`repro.serve.session` — one live stream: a
  :class:`~repro.trace.streaming.StreamingChecker` behind a bounded
  chunk queue with a draining worker task;
* :mod:`repro.serve.server` — the asyncio front end: connection
  handling, op dispatch, HTTP health endpoints, lifecycle.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "MAX_LINE_BYTES": "repro.serve.protocol",
    "MonitorService": "repro.serve.server",
    "ServeConfig": "repro.serve.server",
    "ServeMetrics": "repro.serve.metrics",
    "StreamSession": "repro.serve.session",
    "decode_request": "repro.serve.protocol",
    "encode_message": "repro.serve.protocol",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
