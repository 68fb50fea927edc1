"""Code generation: rendering synthesized monitors to target languages.

* :mod:`repro.codegen.verilog` — synthesizable Verilog FSM with
  scoreboard counters (co-simulated against the Python engine by the
  :mod:`repro.hdl` substrate);
* :mod:`repro.codegen.sva` — SystemVerilog Assertions (sequence +
  cover/assert property) from charts;
* :mod:`repro.codegen.psl` — PSL (the paper's PSL/Sugar reference
  point);
* :mod:`repro.codegen.python_gen` — a dependency-free standalone
  Python checker module.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "VerilogMonitor": "repro.codegen.verilog",
    "chart_to_psl": "repro.codegen.psl",
    "chart_to_sva": "repro.codegen.sva",
    "monitor_to_python": "repro.codegen.python_gen",
    "monitor_to_verilog": "repro.codegen.verilog",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
