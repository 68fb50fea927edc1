"""WaveDrom bridge: timing-diagram JSON <-> traces and charts.

WaveDrom is today's de-facto textual timing-diagram format (the modern
counterpart of the figures in the OCP/AMBA standards the paper works
from).  Two directions:

* :func:`trace_to_wavedrom` — dump a recorded trace as a WaveDrom
  document for visual inspection;
* :func:`wavedrom_to_scesc` — read a (pulse-style) WaveDrom diagram as
  an SCESC: each cycle where at least one signal is high becomes a
  grid line requiring those events, which is exactly how the paper
  reads the standards' waveforms into charts.

Only the bi-level subset is interpreted (``1``/``h`` high, ``0``/``l``
low, ``.`` repeat last); multi-bit lanes and node annotations are out
of scope and rejected explicitly.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.cesc.ast import SCESC
from repro.cesc.builder import ev, scesc
from repro.errors import ChartError
from repro.semantics.run import Trace

__all__ = ["trace_to_wavedrom", "wavedrom_to_scesc"]

_HIGH = {"1", "h", "H"}
_LOW = {"0", "l", "L"}


def trace_to_wavedrom(trace: Trace, name: str = "trace") -> str:
    """Serialise a trace as WaveDrom JSON text."""
    signal = []
    for symbol in sorted(trace.alphabet):
        wave_chars: List[str] = []
        previous: Optional[bool] = None
        for valuation in trace:
            value = valuation.is_true(symbol)
            if value == previous:
                wave_chars.append(".")
            else:
                wave_chars.append("1" if value else "0")
            previous = value
        signal.append({"name": symbol, "wave": "".join(wave_chars)})
    document = {"signal": signal, "config": {"hscale": 1}, "head": {
        "text": name}}
    return json.dumps(document, indent=2)


def _expand_wave(wave: str, name: str) -> List[bool]:
    levels: List[bool] = []
    current = False
    for char in wave:
        if char in _HIGH:
            current = True
        elif char in _LOW:
            current = False
        elif char == ".":
            pass  # repeat last level
        else:
            raise ChartError(
                f"signal {name!r}: unsupported WaveDrom wave char {char!r} "
                "(only bi-level 0/1/h/l/. is interpreted)"
            )
        levels.append(current)
    return levels


def wavedrom_to_trace(document: Union[str, dict]) -> Trace:
    """Decode a bi-level WaveDrom document into a trace.

    ``document`` is JSON text or its parsed form: an object whose
    ``signal`` is a non-empty list of lanes, each an object with a
    string ``name`` and a string ``wave``.  Anything else raises
    :class:`~repro.errors.ChartError`.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as error:
            raise ChartError(
                f"WaveDrom document is not valid JSON: {error}"
            ) from None
    if not isinstance(document, dict):
        raise ChartError(
            "WaveDrom document must be a JSON object, not "
            f"{type(document).__name__}"
        )
    signals = document.get("signal")
    if not isinstance(signals, list) or not signals:
        raise ChartError("WaveDrom document has no 'signal' array")
    lanes: Dict[str, List[bool]] = {}
    length = 0
    for lane in signals:
        if not isinstance(lane, dict) or "name" not in lane:
            raise ChartError("unsupported WaveDrom lane (grouping not handled)")
        name, wave = lane["name"], lane.get("wave")
        if not isinstance(name, str):
            raise ChartError(f"WaveDrom lane name {name!r} is not a string")
        if not isinstance(wave, str):
            raise ChartError(f"signal {name!r}: 'wave' must be a string")
        levels = _expand_wave(wave, name)
        lanes[name] = levels
        length = max(length, len(levels))
    sets = []
    for index in range(length):
        sets.append({
            name for name, levels in lanes.items()
            if index < len(levels) and levels[index]
        })
    return Trace.from_sets(sets, alphabet=lanes.keys())


def wavedrom_to_scesc(document: Union[str, dict], name: str = "wavedrom",
                      instance: str = "DUT") -> SCESC:
    """Read a WaveDrom diagram as an SCESC specification.

    Each cycle with at least one high signal becomes a grid line whose
    events are the high signals of that cycle; leading/trailing idle
    cycles are dropped, interior idle cycles become unconstrained grid
    lines (the scenario tolerates any activity there).
    """
    trace = wavedrom_to_trace(document)
    active = [bool(valuation.true) for valuation in trace]
    if not any(active):
        raise ChartError("WaveDrom diagram contains no events")
    first = active.index(True)
    last = len(active) - 1 - active[::-1].index(True)
    builder = scesc(name).instances(instance)
    for index in range(first, last + 1):
        events = sorted(trace[index].true)
        if events:
            builder.tick(*[ev(e) for e in events])
        else:
            builder.empty_tick()
    return builder.build()
