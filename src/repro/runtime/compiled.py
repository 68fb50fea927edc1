"""Dense-table compiled monitors and the table-dispatch engine.

``Tr`` already enumerates every valuation of the restricted alphabet
when it builds the KMP-style transition table; a
:class:`CompiledMonitor` makes that enumeration persistent.  Each state
owns a dense row of ``2^|Sigma|`` cells indexed by the valuation's
bitmask (:class:`~repro.logic.codec.AlphabetCodec` fixes the
ordering):

* a cell that does not depend on the dynamic scoreboard holds its
  :class:`~repro.monitor.automaton.Transition` directly — stepping is
  two list lookups;
* a cell whose move is data-dependent (``Chk_evt`` guards) holds a
  *check ladder*: ``(compiled_check, transition)`` rungs scanned in
  order, the first rung whose compiled check passes firing (``None``
  marks the unconditional floor).

:func:`compile_monitor` lowers any monitor — dense ``Tr`` output,
symbolic-compressed, or hand-built — by splitting every guard into an
input part (precomputed into a truth bitmap over all masks) and a
scoreboard-dependent residue (compiled to a closure).
:mod:`repro.synthesis.tr` also emits compiled monitors *directly* from
the ladder enumeration, skipping minterm guard construction entirely.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import MonitorError
from repro.logic.codec import AlphabetCodec
from repro.logic.expr import And, Expr, all_of, scoreboard_checks_of
from repro.logic.valuation import Valuation
from repro.monitor.automaton import Monitor, Transition
from repro.monitor.engine import EngineBase, MonitorResult
from repro.monitor.scoreboard import Scoreboard
from repro.semantics.run import Trace
from repro.slots import SlotPickle

__all__ = [
    "CompiledCheck",
    "CompiledMonitor",
    "CompiledEngine",
    "as_compiled",
    "cell_rungs",
    "check_mask_domain",
    "compile_monitor",
    "lower_monitor",
    "run_compiled",
    "run_many",
    "run_many_encoded",
]

#: One dispatch cell: a transition (unconditional), a check ladder of
#: ``(compiled_check_or_None, transition)`` rungs, or ``None`` (no
#: transition enabled — an incomplete monitor).
Cell = Union[Transition, Tuple[Tuple[Optional[Callable], Transition], ...], None]


def map_table_cells(compiled: "CompiledMonitor", convert) -> list:
    """A new table with ``convert`` applied to every cell.

    ``convert`` sees each cell slot; callers that intern converted
    cells should memoize inside ``convert`` (cells are shared across
    slots by identity).  This is the one rebuild loop the
    table-rewriting passes (ladder hardening, carrier slimming) share.
    """
    return [[convert(cell) for cell in row] for row in compiled._table]


class CompiledCheck:
    """A compiled scoreboard-check closure that survives pickling.

    ``Expr.compile`` returns a plain closure, which cannot cross
    process boundaries; the sharded trace pipeline ships whole compiled
    monitors to worker processes.  This wrapper keeps the source
    expression and codec alongside the closure and recompiles on
    unpickle, so a check ladder pickles as data while calls stay a
    single indirection.
    """

    __slots__ = ("expr", "codec", "_fn")

    def __init__(self, expr: Expr, codec: AlphabetCodec):
        self.expr = expr
        self.codec = codec
        self._fn = expr.compile(codec)

    def __call__(self, mask: int, scoreboard) -> bool:
        return self._fn(mask, scoreboard)

    def __reduce__(self):
        return (CompiledCheck, (self.expr, self.codec))

    def __repr__(self):
        return f"CompiledCheck({self.expr!r})"


class CompiledMonitor(SlotPickle):
    """A monitor lowered to dense ``(state, mask) -> cell`` dispatch tables.

    Same 5-tuple metadata as :class:`~repro.monitor.automaton.Monitor`
    (states are ``0..n_states-1``, ``initial``/``final`` indices), but
    the transition function is a list-of-lists: ``table[state][mask]``
    where ``mask`` encodes the input valuation under ``codec``.
    """

    __slots__ = ("name", "n_states", "initial", "final", "codec",
                 "alphabet", "props", "transitions", "source",
                 "ladder_exclusive", "_table")

    def __init__(
        self,
        name: str,
        n_states: int,
        initial: int,
        final: int,
        codec: AlphabetCodec,
        table: Sequence[Sequence[Cell]],
        transitions: Iterable[Transition],
        props: Iterable[str] = (),
        source: Optional[Monitor] = None,
        ladder_exclusive: bool = False,
    ):
        if n_states <= 0:
            raise MonitorError("compiled monitor needs at least one state")
        if not (0 <= initial < n_states) or not (0 <= final < n_states):
            raise MonitorError("initial/final state out of range")
        if len(table) != n_states:
            raise MonitorError(
                f"table has {len(table)} rows for {n_states} states"
            )
        for row in table:
            if len(row) != codec.size:
                raise MonitorError(
                    f"table row of {len(row)} cells for codec size "
                    f"{codec.size}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n_states", int(n_states))
        object.__setattr__(self, "initial", int(initial))
        object.__setattr__(self, "final", int(final))
        object.__setattr__(self, "codec", codec)
        object.__setattr__(self, "alphabet", frozenset(codec.symbols))
        object.__setattr__(self, "props", frozenset(props))
        object.__setattr__(self, "transitions", tuple(transitions))
        #: the interpreted Monitor this was lowered from, when known —
        #: lets coverage collectors match compiled runs to their automaton.
        object.__setattr__(self, "source", source)
        #: True when rung order *is* the semantics (the synthesis
        #: while-loop: first passing rung wins, by construction).
        #: False when rung guards are self-excluding — the ladder is
        #: then scanned in full so that scoreboard-dependent
        #: nondeterminism raises exactly as the interpreted engine does.
        object.__setattr__(self, "ladder_exclusive", bool(ladder_exclusive))
        object.__setattr__(self, "_table", [list(row) for row in table])

    def __setattr__(self, name, value):
        raise AttributeError("CompiledMonitor is immutable")

    def without_source(self) -> "CompiledMonitor":
        """A copy that shares the table but drops the interpreted source.

        The source automaton exists for in-process coverage matching;
        the sharded runner strips it before shipping monitors to
        worker processes, roughly halving the pickle payload.  Plain
        pickling (e.g. an on-disk compilation cache) keeps the source.
        """
        if self.source is None:
            return self
        clone = CompiledMonitor.__new__(CompiledMonitor)
        state = self.__getstate__()
        state["source"] = None
        clone.__setstate__(state)
        return clone

    # -- structure -------------------------------------------------------
    @property
    def states(self) -> range:
        return range(self.n_states)

    @property
    def table(self) -> Tuple[Tuple[Cell, ...], ...]:
        """An immutable view of the dispatch table.

        Compiled monitors are memoized and shared by banks and
        networks, so the live table is never handed out — mutating
        this copy cannot corrupt other runs.
        """
        return tuple(tuple(row) for row in self._table)

    def table_cells(self) -> int:
        """Cells the dense table stores: ``n_states x 2^|Sigma|``."""
        return self.n_states * self.codec.size

    def transition_count(self) -> int:
        return len(self.transitions)

    def has_actions(self) -> bool:
        return any(t.actions for t in self.transitions)

    def has_checks(self) -> bool:
        """Does any cell fall back to scoreboard-dependent dispatch?"""
        return any(
            isinstance(cell, tuple)
            for row in self._table for cell in row
        )

    def cell(self, state: int, mask: int) -> Cell:
        """The cell for ``(state, mask)`` (table scans: synthesizers,
        pruning)."""
        return self._table[state][mask]

    def events(self) -> frozenset:
        return self.alphabet - self.props

    # -- dispatch --------------------------------------------------------
    def dispatch(self, state: int, mask: int,
                 scoreboard: Optional[Scoreboard] = None) -> Transition:
        """The unique transition for ``(state, mask, scoreboard)``."""
        cell = self._table[state][mask]
        if type(cell) is tuple:
            cell = _resolve_ladder(
                cell, mask, scoreboard, self.ladder_exclusive,
                self.name, state,
            )
        if cell is not None:
            return cell
        raise MonitorError(
            f"monitor {self.name!r}: no transition enabled in state "
            f"{state} on input {self.codec.decode(mask)!r} "
            f"(scoreboard {scoreboard!r})"
        )

    def __repr__(self):
        return (
            f"CompiledMonitor({self.name!r}, states={self.n_states}, "
            f"alphabet={len(self.codec)}, cells={self.table_cells()})"
        )


def _resolve_ladder(
    cell: Tuple[Tuple[Optional[Callable], Transition], ...],
    mask: int,
    scoreboard: Optional[Scoreboard],
    exclusive: bool,
    monitor_name: str,
    state: int,
) -> Optional[Transition]:
    """Resolve a check-ladder cell to its transition (or ``None``).

    ``exclusive`` ladders (direct synthesis output) fire the first
    passing rung — rung order encodes the while-loop descent.
    Non-exclusive ladders (lowered from guard lists) are scanned in
    full: two passing rungs that disagree on target or actions are the
    scoreboard-dependent nondeterminism the interpreted engine reports,
    so the compiled backend raises the same :class:`MonitorError`.
    """
    if exclusive:
        for check, transition in cell:
            if check is None or check(mask, scoreboard):
                return transition
        return None
    chosen: Optional[Transition] = None
    for check, transition in cell:
        if check is None or check(mask, scoreboard):
            if chosen is None:
                chosen = transition
            elif (transition.target, transition.actions) != (
                chosen.target, chosen.actions
            ):
                raise MonitorError(
                    f"monitor {monitor_name!r}: nondeterministic in state "
                    f"{state} on valuation mask {mask} "
                    f"(scoreboard {scoreboard!r}): {chosen.label()} vs "
                    f"{transition.label()}"
                )
    return chosen


def _split_guard(guard: Expr) -> Tuple[Expr, Expr]:
    """Split a guard conjunction into (input part, scoreboard residue).

    Top-level ``And`` conjuncts that never mention ``Chk_evt`` form the
    input part (its truth is a pure function of the mask and can be
    tabulated); everything else is the residue, compiled to a closure
    evaluated per step.  A non-conjunctive guard mixing the two kinds
    lands wholly in the residue — still correct, just not tabulated.
    """
    parts = guard.args if isinstance(guard, And) else (guard,)
    input_parts: List[Expr] = []
    residue_parts: List[Expr] = []
    for part in parts:
        if scoreboard_checks_of(part):
            residue_parts.append(part)
        else:
            input_parts.append(part)
    return all_of(input_parts), all_of(residue_parts)


def lower_monitor(
    monitor: Monitor, codec: AlphabetCodec
) -> List[List[Tuple[int, Optional[Expr], Transition]]]:
    """Split every guard into tabulated and runtime parts, per state.

    Each entry is ``(input truth bitmap, scoreboard residue, transition)``:
    the bitmap has bit ``m`` set iff the guard's input part holds under
    valuation mask ``m``; the residue is the ``Chk_evt``-dependent
    remainder (``None`` when the guard is scoreboard-free).  Guards
    whose residue is constant false are dropped — they can never fire.
    Shared by :func:`compile_monitor` and the table-driven Python
    code generator so the two lowerings cannot drift apart.
    """
    lowered: List[List[Tuple[int, Optional[Expr], Transition]]] = []
    for state in monitor.states:
        entries: List[Tuple[int, Optional[Expr], Transition]] = []
        for transition in monitor.transitions_from(state):
            input_part, residue = _split_guard(transition.guard)
            bitmap = codec.truth_table(input_part)
            if residue.atoms():
                entries.append((bitmap, residue, transition))
            elif residue.evaluate(Valuation()):
                entries.append((bitmap, None, transition))
        lowered.append(entries)
    return lowered


def cell_rungs(
    entries: Sequence[Tuple[int, Optional[Expr], Transition]],
    mask: int,
    monitor_name: str,
    state: int,
) -> List[Tuple[Optional[Expr], Transition]]:
    """The check ladder for one ``(state, mask)`` cell.

    Keeps declaration order (the interpreted engine's first-enabled
    selection) and every rung — check-dependent rungs shadowed by an
    earlier unconditional rung are retained so the runtime full scan
    can report scoreboard-dependent nondeterminism exactly as the
    interpreted engine would.  *Statically certain* nondeterminism —
    two always-enabled transitions for the same valuation disagreeing
    on target or actions — is rejected here, at compile time.
    """
    bit = 1 << mask
    rungs = [
        (residue, transition)
        for bitmap, residue, transition in entries
        if bitmap & bit
    ]
    for index, (residue, transition) in enumerate(rungs):
        if residue is not None:
            continue
        for later_residue, later in rungs[index + 1:]:
            if later_residue is None and (
                (later.target, later.actions)
                != (transition.target, transition.actions)
            ):
                raise MonitorError(
                    f"monitor {monitor_name!r}: nondeterministic in state "
                    f"{state} on valuation mask {mask}: "
                    f"{transition.label()} vs {later.label()}"
                )
        break
    return rungs


def compile_monitor(monitor: Monitor) -> CompiledMonitor:
    """Lower a monitor to dense table dispatch.

    Works for any guard shape: the input part of each guard is
    evaluated once per valuation mask at compile time (the same
    ``2^|Sigma|`` enumeration ``Tr`` performs during synthesis); only
    ``Chk_evt``-dependent residues survive to run time, as compiled
    closures in check-ladder cells.  Rung order within a cell is the
    monitor's transition declaration order, matching the interpreted
    engine's first-enabled selection.

    Determinism: two always-enabled transitions disagreeing on the
    same valuation raise :class:`~repro.errors.MonitorError` here, at
    compile time.  Overlap that only materialises for some scoreboard
    state (two ``Chk_evt`` rungs both true at run time) raises the
    interpreted engine's nondeterminism error at run time — ladders of
    lowered monitors are scanned in full, not first-match.
    """
    codec = AlphabetCodec(monitor.alphabet)
    lowered = lower_monitor(monitor, codec)
    closure_cache: dict = {}
    # Equal check ladders are interned to one shared tuple: adjacent
    # masks of a state overwhelmingly produce the same ladder, so
    # interning shrinks the resident table and lets pickle memoize one
    # copy per distinct ladder instead of one per cell.
    cell_cache: dict = {}
    table: List[List[Cell]] = []
    for state in monitor.states:
        entries = lowered[state]
        row: List[Cell] = []
        for mask in range(codec.size):
            rungs = cell_rungs(entries, mask, monitor.name, state)
            if not rungs:
                row.append(None)
            elif len(rungs) == 1 and rungs[0][0] is None:
                row.append(rungs[0][1])
            else:
                compiled_rungs = []
                for residue, transition in rungs:
                    if residue is None:
                        check = None
                    else:
                        check = closure_cache.get(residue)
                        if check is None:
                            check = CompiledCheck(residue, codec)
                            closure_cache[residue] = check
                    compiled_rungs.append((check, transition))
                cell = tuple(compiled_rungs)
                row.append(cell_cache.setdefault(cell, cell))
        table.append(row)
    return CompiledMonitor(
        monitor.name,
        n_states=monitor.n_states,
        initial=monitor.initial,
        final=monitor.final,
        codec=codec,
        table=table,
        transitions=monitor.transitions,
        props=monitor.props,
        source=monitor,
    )


def as_compiled(monitor: Union[Monitor, CompiledMonitor]) -> CompiledMonitor:
    """Coerce to a compiled monitor (identity when already compiled)."""
    if isinstance(monitor, CompiledMonitor):
        return monitor
    return compile_monitor(monitor)


class CompiledEngine(EngineBase):
    """Table-dispatch monitor execution, drop-in for ``MonitorEngine``.

    Same observable contract — ``step``/``feed``/``result``,
    ``detections``, ``transition_log``, and the two-phase
    ``enabled_transition``/``commit`` split that multi-clock networks
    and assertion checkers rely on (inherited from the shared
    :class:`~repro.monitor.engine.EngineBase`) — but each step is a
    dense table lookup instead of a guard-tree walk.  Accepts a
    ``Monitor`` (compiled on construction) or a prebuilt
    ``CompiledMonitor`` (shareable across engines; compilation cost
    paid once).
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


def run_compiled(
    monitor: Union[Monitor, CompiledMonitor],
    trace: Trace,
    scoreboard: Optional[Scoreboard] = None,
) -> MonitorResult:
    """Run the compiled engine over a whole trace.

    Drop-in for :func:`~repro.monitor.engine.run_monitor`; produces an
    identical :class:`~repro.monitor.engine.MonitorResult`.
    """
    engine = CompiledEngine(monitor, scoreboard=scoreboard)
    engine.feed(trace)
    return engine.result()


def run_many(
    monitor: Union[Monitor, CompiledMonitor],
    traces: Sequence[Trace],
    scoreboards: Optional[Sequence[Scoreboard]] = None,
    record_transitions: bool = False,
) -> List[MonitorResult]:
    """Step many traces through one monitor in lock-step.

    The monitor is compiled once; every trace is pre-encoded to mask
    arrays and the per-trace state histories are preallocated, so the
    inner loop touches only integer lists.  Traces may have different
    lengths — shorter ones simply finish earlier.  Each trace gets a
    fresh scoreboard unless ``scoreboards`` injects one per trace.

    ``record_transitions`` additionally logs the transitions each trace
    took (``MonitorResult.transitions``), which coverage campaigns fold
    into :class:`~repro.analysis.coverage.MonitorCoverage`; the default
    leaves the hot loop free of per-tick bookkeeping.
    """
    compiled = as_compiled(monitor)
    if scoreboards is not None and len(scoreboards) != len(traces):
        raise MonitorError(
            "run_many needs exactly one scoreboard per trace when provided"
        )
    return _run_many_encoded(
        compiled,
        compiled.codec.encode_many(traces, as_list=True),
        scoreboards=scoreboards,
        record_transitions=record_transitions,
    )


def run_many_encoded(
    monitor: Union[Monitor, CompiledMonitor],
    mask_arrays: Sequence[Sequence[int]],
    scoreboards: Optional[Sequence[Scoreboard]] = None,
    record_transitions: bool = False,
) -> List[MonitorResult]:
    """:func:`run_many` over pre-encoded valuation-mask arrays.

    The sharded pipeline encodes traces once in the parent and ships
    only the mask arrays to worker processes; the vector kernel shares
    the same arrays.  ``mask_arrays`` entries may be any integer
    sequence (``array('i')`` from
    :meth:`~repro.logic.codec.AlphabetCodec.encode_trace`, a list, or a
    NumPy array) — each is the per-tick mask stream of one trace.
    A mask outside ``[0, 2^|Sigma|)`` raises :class:`MonitorError`
    (see :func:`check_mask_domain`).
    """
    compiled = as_compiled(monitor)
    check_mask_domain(compiled, mask_arrays)
    return _run_many_encoded(compiled, mask_arrays, scoreboards,
                             record_transitions)


def check_mask_domain(compiled: CompiledMonitor,
                      mask_arrays: Sequence[Sequence[int]],
                      error_cls: type = MonitorError) -> None:
    """Reject masks outside ``[0, 2^|Sigma|)`` before a kernel indexes
    a table row with them (the native stepper would read out of
    bounds).

    One min/max pass per lane; only a failing batch is scanned tick by
    tick, to name the first bad mask.  ``error_cls`` lets a boundary
    (the serve layer) raise its own :class:`~repro.errors.ReproError`
    subclass with the same wording.
    """
    size = compiled.codec.size
    for masks in mask_arrays:
        if not len(masks):
            continue
        if hasattr(masks, "min"):  # NumPy: a vectorized reduction
            low, high = masks.min(), masks.max()
        else:
            low, high = min(masks), max(masks)
        if low < 0 or high >= size:
            break
    else:
        return
    for lane, masks in enumerate(mask_arrays):
        for tick, mask in enumerate(masks):
            if not 0 <= mask < size:
                raise error_cls(
                    f"monitor {compiled.name!r}: mask {int(mask)} at "
                    f"trace {lane}, tick {tick} is outside 0..{size - 1} "
                    f"(alphabet {list(compiled.codec.symbols)})"
                )


def _run_many_encoded(compiled: CompiledMonitor, mask_arrays,
                      scoreboards: Optional[Sequence[Scoreboard]] = None,
                      record_transitions: bool = False
                      ) -> List[MonitorResult]:
    """:func:`run_many_encoded` on masks known to be in range."""
    if scoreboards is not None and len(scoreboards) != len(mask_arrays):
        raise MonitorError(
            "run_many needs exactly one scoreboard per trace when provided"
        )
    table = compiled._table
    final = compiled.final
    exclusive = compiled.ladder_exclusive
    count = len(mask_arrays)
    # Plain lists index faster than buffer types in the tick loop.
    masks: List[List[int]] = [
        stream if type(stream) is list else list(stream)
        for stream in mask_arrays
    ]
    lengths = [len(m) for m in masks]
    states = [compiled.initial] * count
    histories = [[compiled.initial] * (length + 1) for length in lengths]
    detections: List[List[int]] = [[] for _ in range(count)]
    boards = (
        list(scoreboards) if scoreboards is not None
        else [Scoreboard() for _ in range(count)]
    )
    taken: Optional[List[List[Transition]]] = (
        [[] for _ in range(count)] if record_transitions else None
    )
    # Lock-step, tick-major: traces drop out of the active set as they
    # finish, so a few long traces never pay per-tick skip scans over
    # the many short ones.
    active = [index for index in range(count) if lengths[index] > 0]
    tick = 0
    while active:
        surviving: List[int] = []
        for index in active:
            mask = masks[index][tick]
            cell = table[states[index]][mask]
            if type(cell) is tuple:
                cell = _resolve_ladder(
                    cell, mask, boards[index], exclusive,
                    compiled.name, states[index],
                )
            if cell is None:
                raise MonitorError(
                    f"monitor {compiled.name!r}: no transition enabled in "
                    f"state {states[index]} on input "
                    f"{compiled.codec.decode(mask)!r} (trace {index}, "
                    f"tick {tick})"
                )
            for action in cell.actions:
                action.apply(boards[index])
            if taken is not None:
                taken[index].append(cell)
            state = cell.target
            states[index] = state
            histories[index][tick + 1] = state
            if state == final:
                detections[index].append(tick)
            if tick + 1 < lengths[index]:
                surviving.append(index)
        active = surviving
        tick += 1
    return [
        MonitorResult(compiled.name, histories[index], detections[index],
                      lengths[index],
                      transitions=(tuple(taken[index])
                                   if taken is not None else None))
        for index in range(count)
    ]
