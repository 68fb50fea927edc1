"""Visual front ends: rendering charts and traces, WaveDrom bridge.

CESC is a *visual* language; these modules provide the drawing layer:

* :mod:`repro.visual.ascii_chart` — terminal rendering of SCESCs
  (instances as vertical lines, grid lines, message arrows, guards);
* :mod:`repro.visual.timing` — traces as ASCII waveforms;
* :mod:`repro.visual.wavedrom` — import/export of WaveDrom timing
  diagram JSON, the de-facto interchange format for timing diagrams
  (and the closest modern analogue of the paper's figures).
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    "render_scesc": "repro.visual.ascii_chart",
    "render_trace": "repro.visual.timing",
    "trace_to_wavedrom": "repro.visual.wavedrom",
    "wavedrom_to_scesc": "repro.visual.wavedrom",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
