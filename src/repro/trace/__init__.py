"""Streaming trace pipeline: external waveforms in, verdicts out.

The synthesis layer turns visual specs into monitors; this package
turns *real simulation dumps* into the valuation streams those
monitors consume, and scales checking beyond a single process:

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
* :mod:`repro.trace.shard` — :func:`run_sharded` /
  :func:`run_bank_sharded`, multiprocessing fan-out of compiled-table
  checking across worker processes (mask arrays travel pickled inside
  each task).
"""

from repro.trace.bridge import trace_to_vcd
from repro.trace.columnar import (
    ColumnarTraceSet,
    codec_fingerprint,
    ingest_vcd,
    masks_from_vcd,
    masks_from_vcd_text,
)
from repro.trace.shard import (
    available_cores,
    run_bank_sharded,
    run_sharded,
    run_sharded_vcd,
    shutdown_worker_pools,
)
from repro.trace.streaming import StreamingChecker, StreamReport
from repro.trace.vcd_reader import SignalBinding, VcdReader, VcdSignal

__all__ = [
    "ColumnarTraceSet",
    "SignalBinding",
    "StreamReport",
    "StreamingChecker",
    "VcdReader",
    "VcdSignal",
    "available_cores",
    "codec_fingerprint",
    "ingest_vcd",
    "masks_from_vcd",
    "masks_from_vcd_text",
    "run_bank_sharded",
    "run_sharded",
    "run_sharded_vcd",
    "shutdown_worker_pools",
    "trace_to_vcd",
]
