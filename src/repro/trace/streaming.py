"""Online checking: valuation streams in, verdicts out, memory bounded.

Batch checking (:func:`~repro.monitor.engine.run_monitor`,
:class:`~repro.monitor.checker.AssertionChecker`) materialises the
whole trace and keeps full state histories.  A
:class:`StreamingChecker` instead consumes any valuation iterable — a
live simulation, a ``repro serve`` stream, or
:meth:`VcdReader.valuations <repro.trace.vcd_reader.VcdReader.valuations>`
under the interpreted engine — pushing each element into the monitor
engines as it arrives:

* engines run with ``record_history=False`` (no per-tick state or
  transition log) and are drained of detections every tick;
* recorded detections/violations are capped at ``max_recorded``
  (counts stay exact beyond the cap);
* checking can stop at the first violation (``stop_on_violation``,
  implication specs) or first detection (``stop_on_detection``),
  which aborts the ingest loop without reading the rest of the dump.

``repro check --vcd`` with a table engine does not stream: it reads
each dump into one mask array (4 bytes a tick) for the batch kernels,
which cannot resume state.  Constant-memory checking of arbitrarily
long dumps comes back with a native streaming kernel (ROADMAP).

Specs: a plain chart (or :class:`~repro.synthesis.compose.MonitorBank`,
:class:`~repro.monitor.automaton.Monitor`,
:class:`~repro.runtime.compiled.CompiledMonitor`) streams as a
*detector*; an :class:`~repro.cesc.charts.Implication` chart streams
as an *assertion* with live obligations, exactly mirroring
:class:`~repro.monitor.checker.AssertionChecker` verdicts.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, List, Tuple

from repro.errors import MonitorError
from repro.logic.valuation import Valuation
from repro.monitor.automaton import Monitor
from repro.monitor.checker import (
    AssertionChecker,
    Obligation,
    Verdict,
    advance_obligation,
)
from repro.runtime.compiled import check_mask_domain
from repro.runtime.engines import (
    AUTO,
    backend as engine_backend,
    plan_streaming,
    require_backend,
)

__all__ = ["StreamReport", "StreamingChecker"]

#: Ticks buffered per vector-mode chunk: enough to amortize the
#: per-chunk Python overhead, small enough that early exits stay
#: early (a chunk is the detection-latency granularity of nothing —
#: verdict ticks are exact — only of wasted lookahead work).
DEFAULT_CHUNK_TICKS = 256


class StreamReport:
    """Summary of an online checking run.

    ``detections`` / ``violations`` hold at most the first
    ``max_recorded`` entries (a violation is the obligation-opening
    tick paired with the tick it failed at); ``n_detections`` /
    ``n_violations`` are exact totals.
    """

    __slots__ = ("name", "ticks", "detections", "n_detections",
                 "violations", "n_violations", "n_passes", "n_pending",
                 "stopped_early")

    def __init__(self, name: str, ticks: int, detections: List[int],
                 n_detections: int,
                 violations: List[Tuple[int, int]], n_violations: int,
                 n_passes: int, n_pending: int, stopped_early: bool):
        self.name = name
        self.ticks = ticks
        self.detections = detections
        self.n_detections = n_detections
        self.violations = violations
        self.n_violations = n_violations
        self.n_passes = n_passes
        self.n_pending = n_pending
        self.stopped_early = stopped_early

    @property
    def accepted(self) -> bool:
        """Did the (antecedent) scenario occur at least once?"""
        return self.n_detections > 0

    @property
    def ok(self) -> bool:
        """No violation observed (pending obligations don't count)."""
        return self.n_violations == 0

    def __repr__(self):
        return (
            f"StreamReport({self.name!r}, ticks={self.ticks}, "
            f"detections={self.n_detections}, "
            f"violations={self.n_violations}, "
            f"stopped_early={self.stopped_early})"
        )


class StreamingChecker:
    """Feed valuations into monitors incrementally, with bounded memory."""

    def __init__(
        self,
        spec,
        engine: str = AUTO,
        stop_on_violation: bool = True,
        stop_on_detection: bool = False,
        max_recorded: int = 10_000,
        loop_limit: int = 3,
        chunk_ticks: int = DEFAULT_CHUNK_TICKS,
    ):
        # An explicit engine validates up front; "auto" stays
        # unresolved until the spec's shape is known (implications
        # interleave obligations per tick, so they plan differently).
        self._backend = (require_backend(engine, "streaming")
                         if engine != AUTO else None)
        if max_recorded < 0:
            raise MonitorError("max_recorded must be >= 0")
        if chunk_ticks <= 0:
            raise MonitorError("chunk_ticks must be positive")
        self._stop_on_violation = stop_on_violation
        self._stop_on_detection = stop_on_detection
        self._max_recorded = max_recorded
        self._chunk_ticks = chunk_ticks
        self._tick = 0
        self._stopped = False
        self._detections: List[int] = []
        self._n_detections = 0
        self._violations: List[Tuple[int, int]] = []
        self._n_violations = 0
        self._n_passes = 0
        self._consequents = None
        self._live: List[Obligation] = []
        self.name, monitors = self._resolve_spec(spec, loop_limit)
        if self._backend is None:
            # A detector spec with engine="auto": chunked vector
            # streaming when NumPy is live, scalar compiled otherwise.
            self._backend = engine_backend(plan_streaming(AUTO))
        if self._consequents is not None and stop_on_detection:
            # An implication opens an obligation at each (antecedent)
            # detection; stopping there would never check anything.
            raise MonitorError(
                "stop_on_detection applies to detector specs; an "
                "implication stops early via stop_on_violation"
            )
        self._engines = [
            self._backend.make_engine(monitor, record_history=False)
            for monitor in monitors
        ]
        # Multi-member specs (banks, implication antecedents) usually
        # synthesize every member over the *same* alphabet; stepping
        # them per tick used to re-encode the valuation once per
        # member.  Group engines by codec symbol ordering so push()
        # encodes once per distinct alphabet — the interpreted backend
        # steps on guard trees and has no mask to share.
        self._push_groups = None
        if self._backend.wants_compiled and len(self._engines) > 1:
            groups: dict = {}
            for engine in self._engines:
                codec = engine.monitor.codec
                group = groups.get(codec.symbols)
                if group is None:
                    groups[codec.symbols] = (codec.encode, [engine])
                else:
                    group[1].append(engine)
            self._push_groups = list(groups.values())

    # -- construction ----------------------------------------------------
    def _resolve_spec(self, spec, loop_limit: int):
        from repro.cesc.charts import Chart, Implication, as_chart
        from repro.runtime.compiled import CompiledMonitor
        from repro.synthesis.compose import MonitorBank

        explicit = self._backend
        # "auto" never resolves to the interpreted walker, so an
        # unresolved backend steps compiled tables.
        wants_compiled = (explicit.wants_compiled
                          if explicit is not None else True)
        if isinstance(spec, CompiledMonitor):
            if not wants_compiled:
                # Interpreted stepping needs guard trees; recover them
                # from the lowering source when the monitor kept one.
                if spec.source is None:
                    raise MonitorError(
                        f"compiled monitor {spec.name!r} has no interpreted "
                        f"source; use engine='compiled' or pass the Monitor"
                    )
                return spec.name, [spec.source]
            return spec.name, [spec]
        if isinstance(spec, Monitor):
            return spec.name, [spec]
        if isinstance(spec, MonitorBank):
            if wants_compiled:
                return spec.name, list(spec.compiled_members())
            return spec.name, list(spec.monitors)
        chart = as_chart(spec) if not isinstance(spec, Chart) else spec
        if isinstance(chart, Implication):
            if explicit is not None and not explicit.step:
                # Obligations interleave with detections tick by tick —
                # chunked lookahead would have to re-derive them anyway.
                raise MonitorError(
                    f"the {explicit.name} engine streams detector specs; "
                    "implications run with engine='compiled'"
                )
            if explicit is None:
                self._backend = explicit = engine_backend(
                    plan_streaming(AUTO, implication=True)
                )
                wants_compiled = explicit.wants_compiled
            checker = AssertionChecker(
                chart, loop_limit=loop_limit, engine=explicit.name
            )
            self._consequents = checker.consequent_patterns
            bank = checker.antecedent_bank
            if wants_compiled:
                return chart.name, list(bank.compiled_members())
            return chart.name, list(bank.monitors)
        from repro.synthesis.compose import synthesize_chart

        bank = synthesize_chart(chart, loop_limit=loop_limit)
        if wants_compiled:
            return bank.name, list(bank.compiled_members())
        return bank.name, list(bank.monitors)

    # -- observers -------------------------------------------------------
    @property
    def engine(self) -> str:
        """The resolved stepping backend's registered name."""
        return self._backend.name

    @property
    def chunked(self) -> bool:
        """Does this checker's backend consume chunked mask pushes?"""
        return self._backend.chunked

    @property
    def ticks(self) -> int:
        return self._tick

    @property
    def n_detections(self) -> int:
        """Exact detection count so far (uncapped)."""
        return self._n_detections

    @property
    def n_violations(self) -> int:
        """Exact violation count so far (uncapped)."""
        return self._n_violations

    @property
    def stopped(self) -> bool:
        """Has an early-exit condition fired?  (push becomes a no-op)"""
        return self._stopped

    @property
    def live_obligations(self) -> int:
        return len(self._live)

    # -- execution -------------------------------------------------------
    def push(self, valuation: Valuation) -> bool:
        """Consume one tick; returns False once checking has stopped."""
        if self._stopped:
            return False
        tick = self._tick
        # Advance live obligations first: an obligation opened at
        # detection tick t starts matching at tick t+1.  Every live
        # obligation is advanced — even when one of them fails and
        # checking is about to stop — so that PASS/PENDING counts for
        # this tick match what the batch checker would report.
        if self._consequents is not None and self._live:
            survivors: List[Obligation] = []
            violated = False
            for obligation in self._live:
                advance_obligation(
                    obligation, self._consequents, valuation, tick
                )
                if obligation.verdict is Verdict.PENDING:
                    survivors.append(obligation)
                elif obligation.verdict is Verdict.PASS:
                    self._n_passes += 1
                else:
                    violated = True
                    self._n_violations += 1
                    if len(self._violations) < self._max_recorded:
                        self._violations.append(
                            (obligation.start_tick, tick)
                        )
            self._live = survivors
            if violated and self._stop_on_violation:
                self._stopped = True
                self._tick += 1
                return False

        detected = False
        if self._push_groups is not None:
            for encode, engines in self._push_groups:
                mask = encode(valuation)
                for engine in engines:
                    engine.step_mask(mask)
                    if engine.drain_detections():
                        detected = True
        else:
            for engine in self._engines:
                engine.step(valuation)
                if engine.drain_detections():
                    detected = True
        if detected:
            self._n_detections += 1
            if len(self._detections) < self._max_recorded:
                self._detections.append(tick)
            if self._consequents is not None:
                self._live.append(Obligation(tick, len(self._consequents)))
            elif self._stop_on_detection:
                self._stopped = True
        self._tick += 1
        return not self._stopped

    def push_chunk(self, valuations: List[Valuation]) -> bool:
        """Consume a batch of ticks through the vector fast path.

        Verdict-equivalent to ``push`` per element — detections land on
        exact ticks, ``stop_on_detection`` truncates the tick count at
        the first detecting tick — but each engine consumes the whole
        chunk in one :meth:`~repro.runtime.vector.VectorEngine.feed_masks`
        call: the chunk is encoded once per member alphabet and stepped
        over the flat table without per-tick method dispatch.  Returns
        ``False`` once checking has stopped.

        Caveat (multi-member error ordering): each member consumes the
        chunk in turn, so when *several* members would raise inside the
        same chunk, the earliest-listed member's error surfaces rather
        than the earliest-*tick* one, and members fed before the raise
        have stepped up to their own failing tick.  Verdict reports are
        unaffected — an error aborts the run in every mode — and
        single-member specs (the common case) behave identically to
        per-tick pushing.
        """
        if not self._backend.chunked:
            raise MonitorError(
                "push_chunk is the vector fast path; construct the "
                "checker with engine='vector' (push() streams per tick)"
            )
        if self._stopped:
            return False
        if not valuations:
            return True
        if self._stop_on_detection:
            # Stopping at the first detection means ticks past it are
            # never stepped — chunked lookahead would step them anyway
            # and could surface errors (incomplete monitors, strict
            # scoreboards) the per-tick checker never reaches.  Process
            # per element; the chunk only batched the iteration.
            for valuation in valuations:
                if not self.push(valuation):
                    return False
            return True
        base = self._tick
        detected: set = set()
        encoded: dict = {}
        for engine in self._engines:
            codec = engine.monitor.codec
            masks = encoded.get(codec.symbols)
            if masks is None:
                encode = codec.encode
                masks = [encode(v) for v in valuations]
                encoded[codec.symbols] = masks
            detected.update(engine.feed_masks(masks))
        for offset in sorted(detected):
            self._n_detections += 1
            if len(self._detections) < self._max_recorded:
                self._detections.append(base + offset)
        self._tick = base + len(valuations)
        return True

    def _require_shared_codec(self):
        """The codec every engine shares (pre-encoded input contract)."""
        symbols = None
        for engine in self._engines:
            these = engine.monitor.codec.symbols
            if symbols is None:
                symbols = these
            elif these != symbols:
                raise MonitorError(
                    "pre-encoded masks need every member over one shared "
                    f"alphabet (got {list(symbols)} and {list(these)})"
                )
        return symbols

    def validate_masks(self, masks,
                       error_cls: type = MonitorError) -> None:
        """Reject masks outside the members' shared codec range with
        :func:`~repro.runtime.compiled.check_mask_domain`'s wording
        (:meth:`push_masks` runs it on every batch).  A checker that
        steps no tables has no codec to check against."""
        if self._backend.wants_compiled and self._engines:
            check_mask_domain(self._engines[0].monitor, [masks],
                              error_cls=error_cls)

    def push_masks(self, masks: List[int]) -> bool:
        """Consume a batch of pre-encoded ticks (table backends).

        The zero-encode twin of :meth:`push_chunk` for input that is
        *already* in mask form — a columnar trace set's arrays, a
        cached corpus entry — verdict-equivalent tick for tick.  A
        chunked backend eats the whole batch per
        :meth:`~repro.runtime.vector.VectorEngine.feed_masks` call;
        other table-stepping backends loop ``step_mask`` (identical
        verdict ticks).  All members must share one alphabet (the
        masks are in a single codec's bit layout), and a mask outside
        it raises :class:`~repro.errors.MonitorError` before any tick
        is stepped.  Returns ``False`` once checking stopped.
        """
        if not self._backend.wants_compiled:
            raise MonitorError(
                "push_masks steps pre-encoded tables; construct the "
                "checker with engine='vector' or engine='compiled'"
            )
        if self._consequents is not None:
            raise MonitorError(
                "pre-encoded streaming checks detector specs; an "
                "implication interleaves obligations per valuation"
            )
        self._require_shared_codec()
        self.validate_masks(masks)
        if self._stopped:
            return False
        if not len(masks):
            return True
        if self._stop_on_detection or not self._backend.chunked:
            for mask in masks:
                if self._stopped:
                    return False
                tick = self._tick
                detected = False
                for engine in self._engines:
                    engine.step_mask(mask)
                    if engine.drain_detections():
                        detected = True
                if detected:
                    self._n_detections += 1
                    if len(self._detections) < self._max_recorded:
                        self._detections.append(tick)
                    if self._stop_on_detection:
                        self._stopped = True
                self._tick += 1
            return not self._stopped
        base = self._tick
        detected_at: set = set()
        for engine in self._engines:
            detected_at.update(engine.feed_masks(masks))
        for offset in sorted(detected_at):
            self._n_detections += 1
            if len(self._detections) < self._max_recorded:
                self._detections.append(base + offset)
        self._tick = base + len(masks)
        return True

    def feed_masks(self, masks) -> "StreamReport":
        """Consume a whole pre-encoded mask stream; return the report.

        ``masks`` is any int sequence — typically one trace of a
        :class:`~repro.trace.columnar.ColumnarTraceSet`, fed in
        ``chunk_ticks`` slices so detection early-exit stays early.
        """
        total = len(masks)
        cursor = 0
        while cursor < total and not self._stopped:
            chunk = masks[cursor:cursor + self._chunk_ticks]
            if not self.push_masks(
                chunk if isinstance(chunk, list) else list(chunk)
            ):
                break
            cursor += self._chunk_ticks
        return self.report()

    def feed(self, valuations: Iterable[Valuation]) -> "StreamReport":
        """Consume an entire stream (or until early exit); return report.

        The input may be any iterable — a :class:`~repro.semantics.run.Trace`,
        a generator over a live simulation, or
        :meth:`VcdReader.valuations
        <repro.trace.vcd_reader.VcdReader.valuations>` — and is read
        strictly one element at a time (``chunk_ticks`` elements at a
        time for the vector backend, which batches the engine work
        without changing any verdict tick).  A ``stop_on_detection``
        check always reads and steps strictly per tick, whatever the
        backend: buffering a chunk would pull (and step) live-source
        ticks past the stopping detection.
        """
        if self._backend.chunked and not self._stop_on_detection:
            iterator = iter(valuations)
            while not self._stopped:
                chunk = list(islice(iterator, self._chunk_ticks))
                if not chunk:
                    break
                if not self.push_chunk(chunk):
                    break
            return self.report()
        for valuation in valuations:
            if not self.push(valuation):
                break
        return self.report()

    def report(self) -> StreamReport:
        return StreamReport(
            self.name,
            ticks=self._tick,
            detections=list(self._detections),
            n_detections=self._n_detections,
            violations=list(self._violations),
            n_violations=self._n_violations,
            n_passes=self._n_passes,
            n_pending=len(self._live),
            stopped_early=self._stopped,
        )
