"""The compile-on-demand native batch backend (host ``cc`` + ctypes).

:mod:`repro.codegen.c_gen` emits one self-contained C table-stepper
per monitor, mirroring :class:`~repro.runtime.lowering.VectorTable`'s
lowering; this module owns everything around that source text:

* **compiler discovery** — ``$CC`` then ``cc``/``gcc``/``clang`` on
  ``PATH``; the C compiler is an *optional* dependency: absent (or
  ``REPRO_NO_CC=1``) means the planner never selects the backend and
  an explicit ``--engine native`` raises the registry's uniform
  unavailability error (:func:`unavailable_reason` is the registry's
  availability hook);
* **the shared-object disk cache** — :func:`shared_object`, the one
  lookup/compile/publish/load path every C object takes (this
  stepper and the VCD block parser of :mod:`repro.trace.vcd_native`).
  Objects are stored through :class:`~repro.cache.CorpusCache`
  (atomic-rename writes, stale ``.tmp-*`` sweeping) keyed by a
  fingerprint over the source (which names the emitter version), the
  compiler identity, the compiler flags and the platform, so a
  table/emitter/toolchain/flag change can never load a stale object;
  damaged entries fail closed — ``ctypes.CDLL`` or the symbol lookup
  failing evicts the entry and rebuilds from source;
* **the batch runners** — :func:`run_many_native` /
  :func:`run_many_native_encoded`, drop-ins for the ``run_many``
  family.  Mask streams are flattened into one ``int32`` buffer, the
  kernel steps every lane and writes state histories plus detection
  ticks into out-buffers, and a nonzero status (a mask outside the
  alphabet, missing cell, no passing rung, nondeterminism, strict
  ``Del_evt`` under-run) runs the mask-domain check and then replays
  the whole batch through the scalar ``run_many_encoded`` loop so
  error messages and anomaly ordering stay byte-identical to
  ``run_many``.  The stepper's own bounds guard is what lets in-range
  batches skip the domain pre-scan.  Injected scoreboards,
  ``record_transitions`` runs and non-lowerable tables delegate to the
  scalar loop outright — identical results either way.

The stream engine on the same kernel,
:class:`~repro.monitor.engine.NativeEngine`, still resolves here.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import sys
import tempfile
from array import array
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro._lazy import lazy_exports
from repro.cache import CorpusCache, IdentityCache
from repro.errors import MonitorError
from repro.monitor.automaton import Monitor
from repro.monitor.scoreboard import Scoreboard
from repro.runtime.compiled import (
    CompiledMonitor, MonitorResult, _run_many_encoded, as_compiled,
    check_mask_domain)

if TYPE_CHECKING:
    from repro.runtime.lowering import VectorTable

__all__ = [
    "NativeEngine",
    "NativeKernel",
    "find_cc",
    "flatten_masks",
    "native_cache_root",
    "native_kernel",
    "native_plan_ok",
    "run_many_native",
    "run_many_native_encoded",
    "shared_object",
    "unavailable_reason",
]

__getattr__, __dir__ = lazy_exports(
    __name__, {"NativeEngine": "repro.monitor.engine"})

#: Compiler flags: optimized, position-independent, silent shared
#: object.  C99 for declarations-in-for; no platform extensions.  Read
#: at build time and part of the cache key.
_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-std=c99")

#: Candidate driver names when ``$CC`` is unset.
_CC_CANDIDATES = ("cc", "gcc", "clang")

_cc_path: Optional[str] = None
_cc_scanned = False


def find_cc() -> Optional[str]:
    """The host C compiler, or ``None`` (memoized ``PATH`` scan).

    ``REPRO_NO_CC`` is checked by :func:`unavailable_reason`, not
    here — the scan result is environment-independent.
    """
    global _cc_path, _cc_scanned
    if not _cc_scanned:
        explicit = os.environ.get("CC")
        names = (explicit,) + _CC_CANDIDATES if explicit else _CC_CANDIDATES
        for name in names:
            found = shutil.which(name)
            if found:
                _cc_path = found
                break
        _cc_scanned = True
    return _cc_path


def unavailable_reason() -> Optional[str]:
    """Why the backend cannot run right now — ``None`` when it can.

    This is the registry's availability hook: the planner skips the
    backend and explicit selection raises the uniform unavailability
    error carrying exactly this text.
    """
    if os.environ.get("REPRO_NO_CC"):
        return "REPRO_NO_CC is set"
    if find_cc() is None:
        return "no C compiler found (install cc or set CC)"
    return None


def native_cache_root() -> str:
    """The shared-object cache directory (``REPRO_NATIVE_CACHE`` wins)."""
    configured = os.environ.get("REPRO_NATIVE_CACHE")
    if configured:
        return configured
    try:
        owner = f"-{os.getuid()}"
    except AttributeError:  # pragma: no cover - non-POSIX
        owner = ""
    return os.path.join(tempfile.gettempdir(), f"repro-native{owner}")


def _fingerprint(source: str, cc: str) -> str:
    """The cache key: source text + toolchain + flags + platform.

    Any of these changing must miss the cache — a stale object built
    by an older emitter (the stepper's source names its emitter
    version), a different compiler or with other flags (a sanitizer
    build, say) is never loaded.
    """
    digest = hashlib.sha256()
    digest.update(f"{cc}|{' '.join(_CC_FLAGS)}|{sys.platform}|".encode())
    digest.update(source.encode())
    return digest.hexdigest()


class NativeKernel:
    """One loaded shared object: the ctypes entry points plus metadata.

    ``events`` names the scoreboard counts the stream entry's state
    buffer carries after the state, in row order.
    """

    __slots__ = ("compiled", "path", "fingerprint", "events", "_fn",
                 "_stream", "_lib")

    def __init__(self, compiled: CompiledMonitor, path: str,
                 fingerprint: str, events: Tuple[str, ...], lib, fn,
                 stream):
        self.compiled = compiled
        self.path = path
        self.fingerprint = fingerprint
        self.events = events
        self._lib = lib
        self._fn = fn
        self._stream = stream

    def run(self, flat_masks, offsets, n_lanes, history, detections,
            det_counts) -> int:
        return self._fn(flat_masks, offsets, n_lanes, history,
                        detections, det_counts)

    def stream(self, masks, length, io, stop, detections, out) -> int:
        return self._stream(masks, length, io, stop, detections, out)


def _bind_stepper(lib) -> tuple:
    """``(lib, fn, stream)``: the stepper's entry points, typed."""
    from repro.codegen.c_gen import ENTRY_SYMBOL, STREAM_SUFFIX

    fn = getattr(lib, ENTRY_SYMBOL)
    fn.restype = ctypes.c_int32
    fn.argtypes = (
        ctypes.c_void_p,  # masks
        ctypes.c_void_p,  # offsets
        ctypes.c_int64,   # n_lanes
        ctypes.c_void_p,  # history
        ctypes.c_void_p,  # detections
        ctypes.c_void_p,  # det_counts
    )
    stream = getattr(lib, ENTRY_SYMBOL + STREAM_SUFFIX)
    stream.restype = ctypes.c_int32
    stream.argtypes = (
        ctypes.c_void_p,  # masks
        ctypes.c_int64,   # len
        ctypes.c_void_p,  # io: state, counts
        ctypes.c_int32,   # stop
        ctypes.c_void_p,  # detections
        ctypes.c_void_p,  # out: detections written, ticks consumed
    )
    return lib, fn, stream


_Bound = TypeVar("_Bound")


def _load_so(path: str, bind: Callable[[ctypes.CDLL], _Bound]
             ) -> Optional[_Bound]:
    """``bind`` over one loaded shared object, or ``None`` when damaged."""
    try:
        return bind(ctypes.CDLL(path))
    except (OSError, AttributeError):
        return None


def _compile_so(cc: str, source: str, so_path: str) -> bool:
    """Compile ``source`` to ``so_path``; False on any toolchain error."""
    import subprocess

    with tempfile.TemporaryDirectory(prefix="repro-cgen-") as workdir:
        c_path = os.path.join(workdir, "stepper.c")
        with open(c_path, "w", encoding="utf-8") as stream:
            stream.write(source)
        try:
            result = subprocess.run(
                [cc, *_CC_FLAGS, "-o", so_path, c_path],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=120,
            )
        except (OSError, subprocess.SubprocessError):
            return False
        return result.returncode == 0 and os.path.exists(so_path)


#: Per-process kernels, keyed by compiled-monitor identity.  The
#: sentinel records monitors that cannot (currently) get a kernel so
#: the fallback decision is made once, not per batch.
_KERNELS = IdentityCache(limit=64)
_UNBUILDABLE = object()


def native_plan_ok(table: VectorTable) -> bool:
    """Planner probe: could this table get a native kernel?

    Cheap by design — availability plus the static lowering
    constraints; no source is emitted and nothing is compiled until a
    batch actually runs.
    """
    from repro.codegen.c_gen import lowerable

    return unavailable_reason() is None and lowerable(table)


def native_kernel(
    monitor: Union[Monitor, CompiledMonitor]
) -> Optional[NativeKernel]:
    """The (memoized) loaded kernel for ``monitor``, or ``None``.

    ``None`` means the batch runners silently take the scalar path:
    no compiler, a table outside the C lowering, a toolchain failure.
    Objects come from :func:`shared_object`'s disk cache.
    """
    compiled = as_compiled(monitor)
    cached = _KERNELS.get(compiled)
    if cached is not None:
        return None if cached is _UNBUILDABLE else cached
    kernel = _build_kernel(compiled)
    _KERNELS.put(compiled, kernel if kernel is not None else _UNBUILDABLE)
    return kernel


def _build_kernel(compiled: CompiledMonitor) -> Optional[NativeKernel]:
    from repro.codegen.c_gen import lowerable, table_to_c
    # Imported here: the VCD block parser, a user of this module, needs
    # no table lowering.
    from repro.runtime.lowering import vector_table

    if unavailable_reason() is not None:
        return None
    table = vector_table(compiled)
    if not lowerable(table):
        return None
    built = shared_object(table_to_c(table), _bind_stepper)
    if built is None:
        return None
    path, key, (lib, fn, stream) = built
    return NativeKernel(compiled, path, key, table.events, lib, fn,
                        stream)


def shared_object(source: str, bind: Callable[[ctypes.CDLL], _Bound]
                  ) -> Optional[Tuple[str, str, _Bound]]:
    """``(path, key, bind(lib))`` for C ``source``, compiled at most once.

    The one lookup/compile/publish/load path of every native object.
    The object comes from the disk cache when its fingerprint matches;
    otherwise it is compiled into a private temp file and published
    by atomic rename (a concurrent builder of the same key loses the
    race harmlessly).  ``bind`` takes the entry points off the loaded
    library and may raise ``AttributeError``: a load or bind failure
    evicts the entry and rebuilds it from source (fail closed), so
    only a clean load is ever returned.  ``None`` when no compiler is
    available or the toolchain fails.
    """
    if unavailable_reason() is not None:
        return None
    cc = find_cc()
    key = _fingerprint(source, cc)
    cache = CorpusCache(native_cache_root(), suffix=".so")
    path = cache.path_for(key)
    if os.path.exists(path):
        loaded = _load_so(path, bind)
        if loaded is not None:
            return path, key, loaded
        cache.invalidate(key)
    handle, tmp_so = tempfile.mkstemp(suffix=".so", dir=cache.root,
                                      prefix=cache._TMP_PREFIX)
    os.close(handle)
    try:
        if not _compile_so(cc, source, tmp_so):
            return None
        os.replace(tmp_so, path)
    except OSError:
        return None
    finally:
        try:
            if os.path.exists(tmp_so):
                os.unlink(tmp_so)
        except OSError:  # pragma: no cover - cleanup race
            pass
    loaded = _load_so(path, bind)
    if loaded is None:  # pragma: no cover - compiler emitted garbage
        cache.invalidate(key)
        return None
    return path, key, loaded


# -- the batch runners ------------------------------------------------------
def flatten_masks(mask_arrays) -> array:
    """Concatenate per-lane mask streams into one ``int32`` buffer.

    Never wraps a value into range: ``array("i")`` refuses values
    outside int32 with ``OverflowError``.  Every value that does land
    in the buffer is the lane's own, so the stepper's bounds guard
    sees it.
    """
    flat = array("i")
    for stream in mask_arrays:
        if type(stream) is array and stream.typecode != "i":
            # array.extend takes only arrays of its own typecode.
            stream = stream.tolist()
        flat.extend(stream)
    return flat


def _addr(buffer) -> int:
    return buffer.buffer_info()[0]


def run_many_native(
    monitor: Union[Monitor, CompiledMonitor],
    traces,
    scoreboards: Optional[Sequence[Scoreboard]] = None,
    record_transitions: bool = False,
) -> List[MonitorResult]:
    """Drop-in for :func:`~repro.runtime.compiled.run_many`, native."""
    compiled = as_compiled(monitor)
    if scoreboards is not None and len(scoreboards) != len(traces):
        raise MonitorError(
            "run_many needs exactly one scoreboard per trace when provided"
        )
    # Encoded traces are in range by construction: no domain check.
    return _run_many_native(
        compiled, compiled.codec.encode_many(traces), scoreboards,
        record_transitions,
    )


def run_many_native_encoded(
    monitor: Union[Monitor, CompiledMonitor],
    mask_arrays: Sequence[Sequence[int]],
    scoreboards: Optional[Sequence[Scoreboard]] = None,
    record_transitions: bool = False,
) -> List[MonitorResult]:
    """:func:`run_many_native` over pre-encoded mask arrays.

    Runs that the C lowering cannot express — injected scoreboards
    (observable objects), transition recording, non-lowerable tables,
    no kernel — delegate to the scalar ``run_many_encoded``; any
    kernel anomaly replays the whole batch through the same loop so
    the raised error (message, trace-index order) is byte-identical.

    A mask outside ``[0, 2^|Sigma|)`` raises :class:`MonitorError`
    (see :func:`~repro.runtime.compiled.check_mask_domain`).  The
    kernel's bounds guard catches such masks itself, so the domain
    check runs only on the scalar paths and before an anomaly replay.
    """
    return _run_many_native(as_compiled(monitor), mask_arrays,
                            scoreboards, record_transitions,
                            in_range=False)


def _run_many_native(compiled, mask_arrays, scoreboards,
                     record_transitions, in_range=True
                     ) -> List[MonitorResult]:
    """:func:`run_many_native_encoded`; ``in_range`` skips the mask
    domain check for masks encoded by the codec itself."""
    if scoreboards is not None and len(scoreboards) != len(mask_arrays):
        raise MonitorError(
            "run_many needs exactly one scoreboard per trace when provided"
        )
    kernel = (
        native_kernel(compiled)
        if scoreboards is None and not record_transitions else None
    )
    if kernel is None:
        if not in_range:
            check_mask_domain(compiled, mask_arrays)
        return _run_many_encoded(
            compiled, mask_arrays, scoreboards=scoreboards,
            record_transitions=record_transitions,
        )
    count = len(mask_arrays)
    if count == 0:
        return []
    lengths = [len(stream) for stream in mask_arrays]
    try:
        flat = flatten_masks(mask_arrays)
    except OverflowError:
        # A mask beyond int32 cannot reach the stepper: name it.
        check_mask_domain(compiled, mask_arrays)
        raise
    offsets = array("q", [0] * (count + 1))
    position = 0
    for index, length in enumerate(lengths):
        position += length
        offsets[index + 1] = position
    history = array("i", bytes(4 * (position + count)))
    detections = array("i", bytes(4 * max(1, position)))
    det_counts = array("q", bytes(8 * count))
    status = kernel.run(
        _addr(flat) if position else None,
        _addr(offsets), count, _addr(history),
        _addr(detections), _addr(det_counts),
    )
    if status != 0:
        # Some lane hit an anomaly or a mask outside the alphabet: the
        # domain check names a bad mask first, as it always has, and
        # otherwise the scalar loop replays the batch and raises
        # run_many's exact error (earliest tick, lowest trace index).
        if not in_range:
            check_mask_domain(compiled, mask_arrays)
        return _run_many_encoded(compiled, mask_arrays)
    results: List[MonitorResult] = []
    name = compiled.name
    for index in range(count):
        start = offsets[index]
        length = lengths[index]
        hist_start = start + index
        results.append(MonitorResult(
            name,
            history[hist_start:hist_start + length + 1].tolist(),
            detections[start:start + det_counts[index]].tolist(),
            length,
        ))
    return results
