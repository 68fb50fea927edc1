"""Monitor -> standalone, dependency-free Python checker source.

The generated module contains a single ``Monitor`` class with a
``step(true_symbols: set) -> bool`` method (returns True on detection)
and mirrors the engine semantics exactly, with the multiset scoreboard
and detection on entering the final state.  Useful for shipping a
monitor into a test environment that must not depend on this library.

Two emission styles are supported:

* ``"table"`` (default) — the compiled-runtime shape: a dense
  ``(state, valuation_mask)`` dispatch table whose cells are check
  ladders ``(guard_lambda_or_None, target, scoreboard_ops)``, scanned
  first-match like :class:`~repro.monitor.engine.CompiledEngine`;
* ``"ladder"`` — the legacy ``if/elif`` guard chain per state,
  mirroring the interpreted engine.

Both styles are behaviourally identical; the table style steps in
near-constant time per tick regardless of guard complexity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CodegenError, MonitorError
from repro.logic.codec import AlphabetCodec
from repro.logic.expr import (
    And,
    Const,
    EventRef,
    Expr,
    Not,
    Or,
    PropRef,
    ScoreboardCheck,
)
from repro.monitor.automaton import AddEvt, DelEvt, Monitor, Transition

__all__ = ["monitor_to_python"]


def _render_guard(expr: Expr) -> str:
    if isinstance(expr, Const):
        return "True" if expr.value else "False"
    if isinstance(expr, (EventRef, PropRef)):
        return f"({expr.name!r} in true_symbols)"
    if isinstance(expr, ScoreboardCheck):
        return f"(self._scoreboard.get({expr.event!r}, 0) > 0)"
    if isinstance(expr, Not):
        return f"(not {_render_guard(expr.operand)})"
    if isinstance(expr, And):
        if not expr.args:
            return "True"
        return "(" + " and ".join(_render_guard(a) for a in expr.args) + ")"
    if isinstance(expr, Or):
        if not expr.args:
            return "False"
        return "(" + " or ".join(_render_guard(a) for a in expr.args) + ")"
    raise CodegenError(f"cannot render guard {expr!r} to Python")


def _render_mask_guard(expr: Expr, codec: AlphabetCodec) -> str:
    """Render a guard as a Python expression over ``mask`` and ``sb``."""
    if isinstance(expr, Const):
        return "True" if expr.value else "False"
    if isinstance(expr, (EventRef, PropRef)):
        bit = codec.bit_of.get(expr.name)
        if bit is None:
            return "False"
        return f"((mask & {bit}) != 0)"
    if isinstance(expr, ScoreboardCheck):
        return f"(sb.get({expr.event!r}, 0) > 0)"
    if isinstance(expr, Not):
        return f"(not {_render_mask_guard(expr.operand, codec)})"
    if isinstance(expr, And):
        if not expr.args:
            return "True"
        return "(" + " and ".join(
            _render_mask_guard(a, codec) for a in expr.args
        ) + ")"
    if isinstance(expr, Or):
        if not expr.args:
            return "False"
        return "(" + " or ".join(
            _render_mask_guard(a, codec) for a in expr.args
        ) + ")"
    raise CodegenError(f"cannot render guard {expr!r} to Python")


def _scoreboard_ops(transition: Transition) -> Tuple[Tuple[int, str], ...]:
    """Flatten a transition's actions into ``(delta, event)`` pairs."""
    ops: List[Tuple[int, str]] = []
    for action in transition.actions:
        if isinstance(action, AddEvt):
            ops.extend((1, event) for event in action.events)
        elif isinstance(action, DelEvt):
            ops.extend((-1, event) for event in action.events)
    return tuple(ops)


def _render_actions(transition, indent: str) -> List[str]:
    lines: List[str] = []
    for delta, event in _scoreboard_ops(transition):
        if delta > 0:
            lines.append(
                f"{indent}self._scoreboard[{event!r}] = "
                f"self._scoreboard.get({event!r}, 0) + 1"
            )
        else:
            lines.append(
                f"{indent}self._scoreboard[{event!r}] = "
                f"max(0, self._scoreboard.get({event!r}, 0) - 1)"
            )
    return lines


def _header_lines(monitor: Monitor, class_name: str, style: str) -> List[str]:
    lines: List[str] = []
    lines.append('"""Auto-generated assertion monitor.')
    lines.append("")
    lines.append(f"Synthesized from chart {monitor.name!r}: "
                 f"{monitor.n_states} states, "
                 f"{monitor.transition_count()} transitions "
                 f"({style} dispatch).")
    lines.append('"""')
    lines.append("")
    lines.append("")
    lines.append(f"class {class_name}:")
    lines.append(f"    INITIAL = {monitor.initial}")
    lines.append(f"    FINAL = {monitor.final}")
    lines.append(f"    ALPHABET = {sorted(monitor.alphabet)!r}")
    return lines


def _footer_lines() -> List[str]:
    return [
        "",
        "    def feed(self, trace):",
        "        for true_symbols in trace:",
        "            self.step(true_symbols)",
        "        return self",
        "",
        "    @property",
        "    def accepted(self):",
        "        return bool(self.detections)",
    ]


def _init_lines() -> List[str]:
    return [
        "",
        "    def __init__(self):",
        "        self.state = self.INITIAL",
        "        self.tick = 0",
        "        self.detections = []",
        "        self._scoreboard = {}",
    ]


def _table_source(monitor: Monitor, class_name: str) -> str:
    """Emit the dense-table dispatch form of the monitor.

    Uses the compiled runtime's own guard lowering
    (:func:`repro.runtime.compiled.lower_monitor` /
    :func:`~repro.runtime.compiled.cell_rungs`), so the generated
    standalone checker cannot drift from what
    :class:`~repro.monitor.engine.CompiledEngine` executes.  Cells
    are interned so the table stays readable for protocol-sized
    alphabets.
    """
    from repro.runtime.compiled import cell_rungs, lower_monitor

    codec = AlphabetCodec(monitor.alphabet)
    lines = _header_lines(monitor, class_name, "table")
    lines.append(f"    _BIT = {codec.bit_of!r}")
    lines.append("")
    lines.append("    # One cell per (state, valuation mask): a tuple of")
    lines.append("    # (guard_or_None, target, scoreboard_ops) rungs.")
    lines.append("    # All rungs are scanned (None guards fire always);")
    lines.append("    # two passing rungs that disagree are nondeterminism.")

    lowered_by_state = lower_monitor(monitor, codec)

    rung_names: Dict[str, str] = {}
    cell_names: Dict[Tuple[str, ...], str] = {}
    rung_lines: List[str] = []
    cell_lines: List[str] = []

    def intern_rung(residue: Optional[Expr], transition: Transition) -> str:
        guard_src = (
            "None" if residue is None
            else f"(lambda mask, sb: {_render_mask_guard(residue, codec)})"
        )
        source = (
            f"({guard_src}, {transition.target}, "
            f"{_scoreboard_ops(transition)!r})"
        )
        name = rung_names.get(source)
        if name is None:
            name = f"_R{len(rung_names)}"
            rung_names[source] = name
            rung_lines.append(f"    {name} = {source}")
        return name

    def intern_cell(rungs: Tuple[str, ...]) -> str:
        name = cell_names.get(rungs)
        if name is None:
            name = f"_C{len(cell_names)}"
            cell_names[rungs] = name
            cell_lines.append(f"    {name} = ({', '.join(rungs)},)")
        return name

    rows: List[List[str]] = []
    for state in monitor.states:
        row: List[str] = []
        for mask in codec.all_masks():
            try:
                ladder = cell_rungs(
                    lowered_by_state[state], mask, monitor.name, state
                )
            except MonitorError as error:
                raise CodegenError(
                    f"cannot generate a table-driven checker: {error}"
                ) from error
            rungs = [
                intern_rung(residue, transition)
                for residue, transition in ladder
            ]
            row.append(intern_cell(tuple(rungs)) if rungs else "None")
        rows.append(row)

    lines.extend(rung_lines)
    lines.extend(cell_lines)
    lines.append("    _TABLE = [")
    for row in rows:
        lines.append(f"        [{', '.join(row)}],")
    lines.append("    ]")
    lines.extend(_init_lines())
    lines.append("")
    lines.append("    def step(self, true_symbols):")
    lines.append('        """Consume one tick; True when the scenario completes."""')
    lines.append("        mask = 0")
    lines.append("        bit_of = self._BIT")
    lines.append("        for symbol in true_symbols:")
    lines.append("            bit = bit_of.get(symbol)")
    lines.append("            if bit:")
    lines.append("                mask |= bit")
    lines.append("        cell = self._TABLE[self.state][mask]")
    lines.append("        sb = self._scoreboard")
    lines.append("        target = None")
    lines.append("        if cell is not None:")
    lines.append("            for guard, rung_target, rung_ops in cell:")
    lines.append("                if guard is None or guard(mask, sb):")
    lines.append("                    if target is None:")
    lines.append("                        target = rung_target")
    lines.append("                        ops = rung_ops")
    lines.append("                    elif (rung_target, rung_ops) != (target, ops):")
    lines.append("                        raise RuntimeError(")
    lines.append("                            'nondeterministic in state '")
    lines.append("                            + repr(self.state))")
    lines.append("        if target is None:")
    lines.append("            raise RuntimeError(")
    lines.append("                'no transition enabled in state '")
    lines.append("                + repr(self.state))")
    lines.append("        for delta, event in ops:")
    lines.append("            count = sb.get(event, 0) + delta")
    lines.append("            sb[event] = count if count > 0 else 0")
    lines.append("        self.state = target")
    lines.append("        detected = target == self.FINAL")
    lines.append("        if detected:")
    lines.append("            self.detections.append(self.tick)")
    lines.append("        self.tick += 1")
    lines.append("        return detected")
    lines.extend(_footer_lines())
    return "\n".join(lines) + "\n"


def _ladder_source(monitor: Monitor, class_name: str) -> str:
    """Emit the legacy ``if/elif`` guard-chain form of the monitor."""
    lines = _header_lines(monitor, class_name, "ladder")
    lines.extend(_init_lines())
    lines.append("")
    lines.append("    def step(self, true_symbols):")
    lines.append('        """Consume one tick; True when the scenario completes."""')
    lines.append("        true_symbols = set(true_symbols)")
    first_state = True
    for state in monitor.states:
        outgoing = monitor.transitions_from(state)
        if not outgoing:
            continue
        keyword = "if" if first_state else "elif"
        first_state = False
        lines.append(f"        {keyword} self.state == {state}:")
        first_guard = True
        for transition in outgoing:
            guard_kw = "if" if first_guard else "elif"
            first_guard = False
            lines.append(
                f"            {guard_kw} {_render_guard(transition.guard)}:"
            )
            body = _render_actions(transition, "                ")
            body.append(f"                self.state = {transition.target}")
            lines.extend(body)
        lines.append("            else:")
        lines.append("                raise RuntimeError(")
        lines.append("                    'no transition enabled in state '")
        lines.append("                    + repr(self.state))")
    lines.append("        detected = self.state == self.FINAL")
    lines.append("        if detected:")
    lines.append("            self.detections.append(self.tick)")
    lines.append("        self.tick += 1")
    lines.append("        return detected")
    lines.extend(_footer_lines())
    return "\n".join(lines) + "\n"


#: Beyond this many alphabet symbols the dense table (``2^k`` cells
#: per state) is unreasonable as source text; fall back to the ladder.
_TABLE_STYLE_MAX_SYMBOLS = 12


def monitor_to_python(monitor: Monitor, class_name: str = "Monitor",
                      style: str = "table") -> str:
    """Emit the monitor as standalone Python source text.

    ``style="table"`` (default) generates the compiled dispatch-table
    runtime; ``style="ladder"`` the legacy per-state guard chain.
    Monitors whose alphabet exceeds ``2^12`` dense-table rows fall
    back to the ladder automatically — the generated class behaves
    identically either way.
    """
    if style == "table":
        if len(monitor.alphabet) > _TABLE_STYLE_MAX_SYMBOLS:
            return _ladder_source(monitor, class_name)
        return _table_source(monitor, class_name)
    if style == "ladder":
        return _ladder_source(monitor, class_name)
    raise CodegenError(f"unknown python emission style {style!r}")
