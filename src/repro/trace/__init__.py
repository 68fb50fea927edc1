"""Streaming trace pipeline: external waveforms in, verdicts out.

The synthesis layer turns visual specs into monitors; this package
turns *real simulation dumps* into the valuation streams those
monitors consume, and checks them:

* :mod:`repro.trace.vcd_reader` — :class:`VcdReader`, the one VCD
  front-end (the counterpart of :class:`~repro.sim.vcd.VcdWriter`):
  dumps stream through in bounded blocks into per-tick mask arrays,
  with a configurable signal-to-symbol :class:`SignalBinding`;
* :mod:`repro.trace.bridge` — :func:`trace_to_vcd`, rendering recorded
  traces as VCD dumps (fixtures, golden files, viewer hand-off);
* :mod:`repro.trace.columnar` — :class:`ColumnarTraceSet`, the binary
  ``.rtrc`` columnar store of pre-encoded mask arrays, with the
  in-process VCD conversion (:func:`masks_from_vcd_text`) and the
  content-addressed corpus ingest (:func:`ingest_vcd`);
* :mod:`repro.trace.streaming` — :class:`StreamingChecker`, online
  checking with bounded memory and early exit;
* :mod:`repro.trace.shard` — :func:`run_sharded_vcd`, checking many
  dumps (or their cached ``.rtrc`` entries) in this process.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "ColumnarTraceSet": "repro.trace.columnar",
    "SignalBinding": "repro.trace.vcd_reader",
    "StreamReport": "repro.trace.shard",
    "StreamingChecker": "repro.trace.streaming",
    "VcdReader": "repro.trace.vcd_reader",
    "VcdSignal": "repro.trace.vcd_reader",
    "codec_fingerprint": "repro.trace.columnar",
    "ingest_vcd": "repro.trace.columnar",
    "masks_from_vcd": "repro.trace.columnar",
    "masks_from_vcd_text": "repro.trace.columnar",
    "run_sharded_vcd": "repro.trace.shard",
    "trace_to_vcd": "repro.trace.bridge",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
