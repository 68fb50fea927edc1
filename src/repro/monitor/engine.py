"""Stepping monitors over clocked traces.

"Following the synchronous model of systems, the transitions in a
monitor are instantaneous and a single clock tick separates two
successive transitions."  The engine reads one valuation per tick,
fires the unique enabled transition, applies its scoreboard actions,
and records a *detection* each time the final state is entered — a
completed occurrence of the specified scenario.  The automaton keeps
running after a detection (the paper's transition function is defined
on the final state too), so overlapping/pipelined occurrences are
caught, exactly as in Figure 7.

The per-tick engines share :class:`EngineBase`: :class:`MonitorEngine`
walks guard trees (the reference), :class:`CompiledEngine` dispatches
on a compiled table and :class:`NativeEngine` steps chunks in C.  Batch
checks run the ``run_many`` runners of :mod:`repro.runtime` instead.
"""

from __future__ import annotations

from array import array
from struct import error as struct_error, pack_into
from typing import Iterable, List, Optional, Sequence, Union

from repro.errors import MonitorError
from repro.logic.valuation import Valuation
from repro.monitor.automaton import Monitor, Transition
from repro.monitor.scoreboard import Scoreboard
from repro.runtime.compiled import (
    CompiledMonitor, MonitorResult, _resolve_ladder, as_compiled,
    check_mask_domain)
from repro.semantics.run import Trace

__all__ = ["CompiledEngine", "EngineBase", "MonitorEngine", "MonitorResult",
           "NativeEngine", "run_monitor"]

#: A scoreboard count above this cannot enter the C stepper's buffer.
_INT32_MAX = (1 << 31) - 1


class EngineBase:
    """Shared stepping state machine for both monitor backends.

    Holds the configuration (state, tick, detections, transition log,
    optionally-shared scoreboard) and the ``commit``/``feed``/
    ``result``/``reset`` half of the engine contract.  Subclasses
    provide ``enabled_transition`` — the interpreted engine by walking
    guard trees, the compiled engine by table dispatch — and may
    override ``step`` with a fused fast path.  ``automaton`` is any
    object exposing ``name``/``initial``/``final``.

    ``record_history=False`` turns off the per-tick state history and
    transition log — and the operation log of an engine-owned
    scoreboard — giving O(1) memory per tick regardless of trace
    length: the streaming pipeline runs engines this way and drains
    detections incrementally with :meth:`drain_detections`.
    """

    def __init__(self, automaton, scoreboard: Optional[Scoreboard] = None,
                 record_history: bool = True):
        self._automaton = automaton
        self._owns_scoreboard = scoreboard is None
        self._scoreboard = (scoreboard if scoreboard is not None
                            else Scoreboard(log=record_history))
        self._state = automaton.initial
        self._tick = 0
        self._record_history = record_history
        self._states: List[int] = [automaton.initial]
        self._detections: List[int] = []
        self._transition_log: List[Transition] = []

    # -- observers -------------------------------------------------------
    @property
    def state(self) -> int:
        return self._state

    @property
    def scoreboard(self) -> Scoreboard:
        return self._scoreboard

    @property
    def detections(self) -> List[int]:
        return list(self._detections)

    @property
    def tick(self) -> int:
        return self._tick

    @property
    def transition_log(self) -> List[Transition]:
        """Transitions taken so far, in order (for coverage analysis)."""
        return list(self._transition_log)

    # -- execution ---------------------------------------------------------
    def enabled_transition(self, valuation: Valuation) -> Transition:
        """The unique transition enabled by ``valuation`` right now."""
        raise NotImplementedError

    def commit(self, transition: Transition,
               apply_actions: bool = True) -> int:
        """Take a previously selected transition (two-phase stepping).

        Multi-clock networks select transitions for all coincident
        ticks against the pre-instant scoreboard, then commit them —
        pass ``apply_actions=False`` when the caller sequences the
        scoreboard updates itself.
        """
        if apply_actions:
            for action in transition.actions:
                action.apply(self._scoreboard)
        self._state = transition.target
        if self._record_history:
            self._transition_log.append(transition)
            self._states.append(self._state)
        if self._state == self._automaton.final:
            self._detections.append(self._tick)
        self._tick += 1
        return self._state

    def step(self, valuation: Valuation) -> int:
        """Consume one trace element; return the new state."""
        return self.commit(self.enabled_transition(valuation))

    def feed(self, trace: Iterable[Valuation]) -> "EngineBase":
        for valuation in trace:
            self.step(valuation)
        return self

    def drain_detections(self) -> List[int]:
        """Detections recorded since the last drain (then forgotten).

        Streaming consumers call this once per tick (or batch of ticks)
        so that a monitor observing billions of ticks never accumulates
        an unbounded detection list inside the engine.
        """
        drained = self._detections
        self._detections = []
        return drained

    def result(self) -> MonitorResult:
        """The run's outcome (requires ``record_history=True``).

        A history-free engine cannot produce a faithful result — its
        state sequence was never recorded and detections may have been
        drained — so asking for one is an error, not silently wrong
        data.  Streaming consumers read ``drain_detections`` instead.
        """
        if not self._record_history:
            raise MonitorError(
                f"monitor {self._automaton.name!r}: result() needs "
                f"record_history=True; streaming engines report through "
                f"drain_detections()"
            )
        return MonitorResult(
            self._automaton.name, list(self._states),
            list(self._detections), self._tick,
            transitions=tuple(self._transition_log),
        )

    def reset(self) -> None:
        """Return to the initial configuration.

        An injected (shared) scoreboard is left untouched — only an
        engine-owned scoreboard is cleared, so resetting one engine of
        a multi-clock network cannot wipe its peers' causality state.
        """
        self._state = self._automaton.initial
        self._tick = 0
        self._states = [self._automaton.initial]
        self._detections = []
        self._transition_log = []
        if self._owns_scoreboard:
            self._scoreboard.clear()


class MonitorEngine(EngineBase):
    """Incremental monitor execution with an (optionally shared) scoreboard."""

    def __init__(self, monitor: Monitor,
                 scoreboard: Optional[Scoreboard] = None,
                 record_history: bool = True):
        super().__init__(monitor, scoreboard, record_history=record_history)
        self._monitor = monitor

    @property
    def monitor(self) -> Monitor:
        return self._monitor

    def enabled_transition(self, valuation: Valuation) -> Transition:
        """The unique transition enabled by ``valuation`` right now."""
        enabled = [
            t
            for t in self._monitor.transitions_from(self._state)
            if t.guard.evaluate(valuation, self._scoreboard)
        ]
        if not enabled:
            raise MonitorError(
                f"monitor {self._monitor.name!r}: no transition enabled in "
                f"state {self._state} on input {valuation!r} "
                f"(scoreboard {self._scoreboard!r})"
            )
        if len(enabled) > 1:
            targets = {(t.target, t.actions) for t in enabled}
            if len(targets) > 1:
                raise MonitorError(
                    f"monitor {self._monitor.name!r}: nondeterministic in "
                    f"state {self._state} on input {valuation!r}: "
                    f"{[t.label() for t in enabled]}"
                )
        return enabled[0]


class CompiledEngine(EngineBase):
    """Table-dispatch monitor execution, drop-in for ``MonitorEngine``.

    Same observable contract — ``step``/``feed``/``result``,
    ``detections``, ``transition_log``, and the two-phase
    ``enabled_transition``/``commit`` split that multi-clock networks
    and assertion checkers rely on (inherited from the shared
    :class:`EngineBase`) — but each step is a dense table lookup
    instead of a guard-tree walk.  Accepts a ``Monitor`` (compiled on
    construction) or a prebuilt ``CompiledMonitor`` (shareable across
    engines; compilation cost paid once).
    """

    def __init__(self, monitor: Union[Monitor, CompiledMonitor],
                 scoreboard: Optional[Scoreboard] = None,
                 record_history: bool = True):
        compiled = as_compiled(monitor)
        super().__init__(compiled, scoreboard, record_history=record_history)
        self._compiled = compiled
        self._table = compiled._table
        self._encode = compiled.codec.encode
        self._exclusive = compiled.ladder_exclusive

    @property
    def monitor(self) -> CompiledMonitor:
        return self._compiled

    def enabled_transition(self, valuation: Valuation) -> Transition:
        """The unique transition enabled by ``valuation`` right now."""
        return self._compiled.dispatch(
            self._state, self._encode(valuation), self._scoreboard
        )

    def step(self, valuation: Valuation) -> int:
        """Consume one trace element; return the new state."""
        return self.step_mask(self._encode(valuation))

    def step_mask(self, mask: int) -> int:
        """Consume one pre-encoded valuation mask; return the new state.

        The mask form of :meth:`step`: bank streaming encodes a tick
        once per distinct member alphabet and steps every member
        through here, instead of once per member.
        """
        cell = self._table[self._state][mask]
        if type(cell) is tuple:
            cell = _resolve_ladder(
                cell, mask, self._scoreboard, self._exclusive,
                self._compiled.name, self._state,
            )
        if cell is None:
            raise MonitorError(
                f"monitor {self._compiled.name!r}: no transition enabled "
                f"in state {self._state} on input "
                f"{self._compiled.codec.decode(mask)!r} "
                f"(scoreboard {self._scoreboard!r})"
            )
        return self.commit(cell)

    def feed_masks(self, masks: Sequence[int],
                   stop: bool = False) -> List[int]:
        """Consume one chunk of encoded ticks; return detection offsets.

        The streaming checker's chunk path: one tight loop over the
        flat table of :func:`~repro.runtime.lowering.vector_table`,
        without per-tick method dispatch.  Offsets are relative to the
        first tick of the chunk; ``stop`` ends the chunk right after
        its first detecting tick, so no later tick is stepped.  State,
        tick count and scoreboard evolve exactly as per-tick
        :meth:`step_mask` calls would — including on failure: a tick
        that cannot step raises the error ``step_mask`` raises (a mask
        outside the alphabet raises
        :func:`check_mask_domain`'s), with the engine left at the
        failing tick, earlier ticks committed and their detections
        waiting in :meth:`drain_detections`.  Per-tick history
        recording is not supported (streaming engines run
        ``record_history=False``).
        """
        if self._record_history:
            raise MonitorError(
                "feed_masks is the streaming fast path; construct the "
                "engine with record_history=False (step() records "
                "history tick by tick)"
            )
        from repro.runtime.lowering import vector_table

        compiled = self._compiled
        vt = vector_table(compiled)
        flat = vt.flat
        size = vt.size
        final = vt.final
        # The flat index of an out-of-range mask is another state's
        # cell: step only the in-range prefix, then name the bad mask.
        end = len(masks)
        if end and (min(masks) < 0 or max(masks) >= size):
            end = next(offset for offset, mask in enumerate(masks)
                       if not 0 <= mask < size)
        scalar_table = self._table
        scoreboard = self._scoreboard
        exclusive = self._exclusive
        state = self._state
        detections: List[int] = []
        stepped = end
        stream = masks if end == len(masks) else masks[:end]
        for offset, mask in enumerate(stream):
            nxt = flat[state * size + mask]
            if nxt < 0:
                try:
                    cell = scalar_table[state][mask]
                    if type(cell) is tuple:
                        cell = _resolve_ladder(
                            cell, mask, scoreboard, exclusive,
                            compiled.name, state,
                        )
                    if cell is None:
                        raise MonitorError(
                            f"monitor {compiled.name!r}: no transition "
                            f"enabled in state {state} on input "
                            f"{compiled.codec.decode(mask)!r} "
                            f"(scoreboard {scoreboard!r})"
                        )
                    for action in cell.actions:
                        action.apply(scoreboard)
                except Exception:
                    self._stopped_at(state, offset, detections)
                    raise
                nxt = cell.target
            state = nxt
            if state == final:
                detections.append(offset)
                if stop:
                    stepped = offset + 1
                    break
        if stepped < len(masks) and not (stop and detections):
            self._stopped_at(state, stepped, detections)
            check_mask_domain(compiled, [masks])
        self._state = state
        self._tick += stepped
        return detections

    def _stopped_at(self, state: int, offset: int,
                    detections: List[int]) -> None:
        """Leave the engine where step-by-step stepping would have: at
        the failing tick, with the chunk's detections before it
        recorded (for :meth:`drain_detections`)."""
        self._state = state
        self._detections.extend(self._tick + hit for hit in detections)
        self._tick += offset


class NativeEngine(CompiledEngine):
    """A compiled engine whose :meth:`feed_masks` is one C call a chunk.

    The stepper's stream entry keeps the engine's state and scoreboard
    counts in an ``int32`` buffer between calls, so a stream of chunks
    never leaves C while it is clean.  On an anomaly the entry writes
    nothing back, and the chunk replays from its start state through
    :meth:`CompiledEngine.feed_masks`: the error text
    and where the engine stops are the scalar loop's.  The Python
    :class:`~repro.monitor.scoreboard.Scoreboard` is rebuilt from the
    counts only when something reads it (:attr:`scoreboard`, per-tick
    stepping, a replay).  An injected scoreboard, a table outside the
    C lowering or a missing kernel steps every chunk in Python, as
    :func:`~repro.runtime.native.run_many_native` does.
    """

    def __init__(self, monitor: Union[Monitor, CompiledMonitor],
                 scoreboard: Optional[Scoreboard] = None,
                 record_history: bool = True):
        from repro.runtime.native import native_kernel

        super().__init__(monitor, scoreboard=scoreboard,
                         record_history=record_history)
        # An injected scoreboard is an observable object: it steps in
        # Python, tick by tick.
        self._kernel = (native_kernel(self._compiled)
                        if scoreboard is None else None)
        self._in_c = False
        if self._kernel is not None:
            self._io = array("i", bytes(4 * (1 + max(
                1, len(self._kernel.events)))))
            # Chunk-sized in/out buffers, reused call after call.
            self._masks = array("i")
            self._found = array("i")
            self._out = array("q", bytes(16))

    # -- the Python side of the state --------------------------------------
    def _sync_board(self) -> None:
        """Hand the counts back to the Python scoreboard (events the
        table never touches keep theirs)."""
        if self._in_c:
            self._in_c = False
            io = self._io
            counts = self._scoreboard.snapshot()
            counts.update(
                (event, io[1 + row])
                for row, event in enumerate(self._kernel.events)
            )
            self._scoreboard.restore(counts)

    def _load_io(self) -> bool:
        """Copy state and counts into the C buffer; ``False`` when a
        count does not fit ``int32`` (the chunk then steps in Python)."""
        io = self._io
        count = self._scoreboard.count
        for row, event in enumerate(self._kernel.events):
            value = count(event)
            if value > _INT32_MAX:
                return False
            io[1 + row] = value
        io[0] = self._state
        self._in_c = True
        return True

    @property
    def scoreboard(self) -> Scoreboard:
        self._sync_board()
        return self._scoreboard

    def enabled_transition(self, valuation):
        self._sync_board()
        return super().enabled_transition(valuation)

    def step_mask(self, mask: int) -> int:
        self._sync_board()
        return super().step_mask(mask)

    def commit(self, transition, apply_actions: bool = True) -> int:
        self._sync_board()
        return super().commit(transition, apply_actions)

    def reset(self) -> None:
        self._in_c = False
        super().reset()

    # -- the chunk path ------------------------------------------------------
    def feed_masks(self, masks: Sequence[int],
                   stop: bool = False) -> List[int]:
        """:meth:`CompiledEngine.feed_masks`, one C call per chunk."""
        kernel = self._kernel
        count = len(masks)
        if kernel is None or self._record_history or not count or (
            not self._in_c and not self._load_io()
        ):
            return super().feed_masks(masks, stop)
        found = self._found
        if len(found) < count:
            self._masks = array("i", bytes(4 * count))
            self._found = found = array("i", bytes(4 * count))
        if type(masks) is array and masks.typecode == "i":
            buffer = masks
        else:
            buffer = self._masks
            try:
                # Two to three times faster than array("i", masks).
                pack_into(f"={count}i", buffer, 0, *masks)
            except struct_error:
                # Beyond int32: the scalar loop names the bad mask.
                self._sync_board()
                return super().feed_masks(masks, stop)
        out = self._out
        if kernel.stream(buffer.buffer_info()[0], count,
                         self._io.buffer_info()[0], 1 if stop else 0,
                         found.buffer_info()[0], out.buffer_info()[0]):
            # Nothing was written back: replay from the chunk's start.
            self._sync_board()
            return super().feed_masks(masks, stop)
        self._state = self._io[0]
        self._tick += out[1]
        return found[:out[0]].tolist()


def run_monitor(monitor: Monitor, trace: Trace,
                scoreboard: Optional[Scoreboard] = None) -> MonitorResult:
    """Run ``monitor`` over the whole ``trace`` and return the result.

    A detection at tick ``i`` means the window ``[i - n + 1, i]`` of the
    trace realised the scenario (``n`` being the chart's tick count).
    """
    engine = MonitorEngine(monitor, scoreboard=scoreboard)
    engine.feed(trace)
    return engine.result()
