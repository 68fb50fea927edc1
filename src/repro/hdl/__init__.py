"""Verilog-subset front end and cycle simulator.

The co-simulation substrate: parses the synthesizable Verilog the
codegen emits (module / port declarations / reg / wire / assign /
``always @(posedge ...)`` with if-else, case, non-blocking assignments,
sized literals and the usual operators) and simulates it cycle by
cycle, so generated RTL monitors can be checked for bit-exact
equivalence against the Python engine without an external simulator.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "AlwaysBlock": "repro.hdl.ast",
    "Assign": "repro.hdl.ast",
    "BinaryOp": "repro.hdl.ast",
    "CaseItem": "repro.hdl.ast",
    "CaseStmt": "repro.hdl.ast",
    "Concat": "repro.hdl.ast",
    "Conditional": "repro.hdl.ast",
    "Identifier": "repro.hdl.ast",
    "IfStmt": "repro.hdl.ast",
    "Module": "repro.hdl.ast",
    "NetDecl": "repro.hdl.ast",
    "NonBlockingAssign": "repro.hdl.ast",
    "Number": "repro.hdl.ast",
    "Port": "repro.hdl.ast",
    "UnaryOp": "repro.hdl.ast",
    "VerilogSim": "repro.hdl.sim",
    "parse_verilog": "repro.hdl.parser",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
