"""Clocked (GALS) simulation substrate hosting protocol models + monitors.

The paper's monitors run inside a simulation environment (Figure 4).
This package is that substrate: a cycle-based, multi-clock discrete
"event" kernel with two-phase signal semantics, VCD waveform output,
and a testbench harness that samples signals into the valuation traces
monitors consume.

* :mod:`repro.sim.signal` — signals with staged writes and one-tick
  pulses (events);
* :mod:`repro.sim.kernel` — the simulator: clocks, leveled processes
  (sequential then combinational), global-time ordering of GALS ticks;
* :mod:`repro.sim.vcd` — VCD waveform writer;
* :mod:`repro.sim.testbench` — trace recording, online monitor/checker
  attachment, network hookup for multi-clock designs.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "Signal": "repro.sim.signal",
    "Simulator": "repro.sim.kernel",
    "Testbench": "repro.sim.testbench",
    "TraceRecorder": "repro.sim.testbench",
    "VcdWriter": "repro.sim.vcd",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
