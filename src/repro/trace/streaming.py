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

Table backends (``compiled``, ``native``) consume pushed chunks —
:meth:`StreamingChecker.push_chunk`, :meth:`~StreamingChecker.push_masks`
— through one path: each engine's ``feed_masks`` steps the whole chunk
(one C call on ``native``, one flat-table loop on ``compiled``) and
stops exactly at the first detecting tick when ``stop_on_detection``
asks it to.

``repro check --vcd`` with a table engine does not stream: it reads
each dump into one mask array for the batch kernels (a check peaks at
about 28 bytes a tick, measured 2026-10-19).

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

from repro.errors import MonitorError, ReproError
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
from repro.trace.shard import StreamReport

__all__ = ["StreamReport", "StreamingChecker"]

#: Ticks :meth:`StreamingChecker.feed` and
#: :meth:`~StreamingChecker.feed_masks` buffer per chunk: enough to
#: amortize the per-chunk Python overhead (verdict ticks are exact at
#: any chunk size).
DEFAULT_CHUNK_TICKS = 256


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
            # A detector spec with engine="auto": native chunks when a
            # C compiler is available, compiled chunks otherwise.
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
        # synthesize every member over the *same* alphabet.  Group
        # engines by codec symbol ordering so a tick or a chunk is
        # encoded once per distinct alphabet — the interpreted backend
        # steps on guard trees and has no mask to share.
        self._push_groups = None
        self._codec = None
        if self._backend.wants_compiled:
            groups: dict = {}
            for engine in self._engines:
                codec = engine.monitor.codec
                group = groups.get(codec.symbols)
                if group is None:
                    groups[codec.symbols] = (codec, [engine])
                else:
                    group[1].append(engine)
            self._push_groups = list(groups.values())
            if len(self._push_groups) == 1 and self._consequents is None:
                self._codec = self._push_groups[0][0]

    # -- construction ----------------------------------------------------
    def _resolve_spec(self, spec, loop_limit: int):
        from repro.cesc.charts import Chart, Implication, as_chart
        from repro.runtime.compiled import CompiledMonitor

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
        from repro.synthesis.compose import MonitorBank, synthesize_chart

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
        from repro.synthesis.pattern import flatten_chart
        from repro.synthesis.tr import synthesize_compiled

        patterns = flatten_chart(chart, loop_limit=loop_limit)
        if wants_compiled and patterns:
            # The members synthesize_chart's bank would compile, each
            # filled per satisfaction signature: no minterm monitor is
            # built or lowered.
            return chart.name, [synthesize_compiled(pattern)
                                for pattern in patterns]
        # The interpreted walker steps the bank's minterm monitors (and
        # a chart with no alternative gets the bank's error).
        bank = synthesize_chart(chart, loop_limit=loop_limit)
        return bank.name, list(bank.monitors)

    # -- observers -------------------------------------------------------
    @property
    def engine(self) -> str:
        """The resolved stepping backend's registered name."""
        return self._backend.name

    @property
    def codec(self):
        """The one codec every member steps on, or ``None``.

        Set for detector specs on a table backend whose members share
        an alphabet: those take pre-encoded chunks
        (:meth:`push_masks`).  Implications, the interpreted engine and
        banks over several alphabets have no single codec.
        """
        return self._codec

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
            for codec, engines in self._push_groups:
                mask = codec.encode(valuation)
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
        """Consume a batch of ticks; returns ``False`` once stopped.

        Verdict-equivalent to ``push`` per element — detections land on
        exact ticks, ``stop_on_detection`` ends the chunk at its first
        detecting tick and no later tick is stepped.  On a table
        backend the chunk is encoded once per member alphabet and each
        engine consumes it in one ``feed_masks`` call; implications and
        the interpreted engine push tick by tick.

        Caveat (multi-member error ordering): each member consumes the
        chunk in turn, so when *several* members would raise inside the
        same chunk, the earliest-listed member's error surfaces rather
        than the earliest-*tick* one, and members fed before the raise
        have stepped up to their own failing tick.  Verdict reports are
        unaffected — an error aborts the run in every mode — and
        single-member specs (the common case) behave identically to
        per-tick pushing.
        """
        if self._push_groups is None or self._consequents is not None:
            for valuation in valuations:
                if not self.push(valuation):
                    return False
            return not self._stopped
        feeds = []
        for codec, engines in self._push_groups:
            encode = codec.encode
            masks = [encode(valuation) for valuation in valuations]
            feeds.extend((engine, masks) for engine in engines)
        return self._step_chunk(feeds, len(valuations))

    def _require_shared_codec(self, error_cls: type = MonitorError):
        """The codec every engine shares (pre-encoded input contract)."""
        if not self._backend.wants_compiled:
            raise error_cls(
                "push_masks steps pre-encoded tables; engine "
                f"{self._backend.name!r} has none (use engine "
                "'compiled' or 'native')"
            )
        if self._consequents is not None:
            raise error_cls(
                "pre-encoded streaming checks detector specs; an "
                "implication interleaves obligations per valuation"
            )
        if self._codec is None:
            first, second = self._push_groups[:2]
            raise error_cls(
                "pre-encoded masks need every member over one shared "
                f"alphabet (got {list(first[0].symbols)} and "
                f"{list(second[0].symbols)})"
            )
        return self._codec

    def validate_masks(self, masks,
                       error_cls: type = MonitorError) -> None:
        """Reject a batch :meth:`push_encoded` cannot step, as
        ``error_cls``: a checker without one shared codec (the
        interpreted engine, an implication, members over several
        alphabets), or a mask outside the codec's range
        (:func:`~repro.runtime.compiled.check_mask_domain`'s wording).
        :meth:`push_masks` runs it on every batch."""
        self._require_shared_codec(error_cls)
        check_mask_domain(self._engines[0].monitor, [masks],
                          error_cls=error_cls)

    def push_masks(self, masks: List[int]) -> bool:
        """Consume a batch of pre-encoded ticks (table backends).

        The zero-encode twin of :meth:`push_chunk` for input that is
        *already* in mask form — a columnar trace set's arrays, a
        cached corpus entry — verdict-equivalent tick for tick.  All
        members must share one alphabet (the masks are in a single
        codec's bit layout), and a mask outside it raises
        :class:`~repro.errors.MonitorError` before any tick is stepped.
        Returns ``False`` once checking stopped.
        """
        self.validate_masks(masks)
        return self.push_encoded(masks)

    def push_encoded(self, masks: List[int]) -> bool:
        """:meth:`push_masks` for masks known to be in range — encoded
        by :attr:`codec` itself — without the domain scan."""
        if self._codec is None:
            self._require_shared_codec()
        return self._step_chunk(
            [(engine, masks) for engine in self._engines], len(masks)
        )

    def _step_chunk(self, feeds, length: int) -> bool:
        """Step ``length`` ticks: ``feeds`` pairs each engine with the
        chunk in its own alphabet's masks."""
        if self._stopped:
            return False
        if not length:
            return True
        stop = self._stop_on_detection
        base = self._tick
        if len(feeds) == 1:
            engine, masks = feeds[0]
            start = engine.tick
            try:
                hits = engine.feed_masks(masks, stop=stop)
            except ReproError:
                # Count what per-tick pushing counts before it raises:
                # the ticks and detections before the failing one.
                self._record_hits(base, [
                    tick - start for tick in engine.drain_detections()])
                self._tick = base + engine.tick - start
                raise
        elif not stop:
            found: set = set()
            for engine, masks in feeds:
                found.update(engine.feed_masks(masks))
            hits = sorted(found)
        else:
            # Several members stopping at the first tick *any* of them
            # detects: step them together, tick by tick, so none runs
            # past it.
            for offset in range(length):
                detected = False
                for engine, masks in feeds:
                    engine.step_mask(masks[offset])
                    if engine.drain_detections():
                        detected = True
                self._tick += 1
                if detected:
                    self._record_hits(base, [offset])
                    self._stopped = True
                    return False
            return True
        self._record_hits(base, hits)
        if stop and hits:
            self._stopped = True
            self._tick = base + hits[0] + 1
            return False
        self._tick = base + length
        return True

    def _record_hits(self, base: int, offsets: List[int]) -> None:
        self._n_detections += len(offsets)
        room = self._max_recorded - len(self._detections)
        if room > 0:
            self._detections.extend(base + offset
                                    for offset in offsets[:room])

    def feed_masks(self, masks) -> "StreamReport":
        """Consume a whole pre-encoded mask stream; return the report.

        ``masks`` is any int sequence — typically one trace of a
        :class:`~repro.trace.columnar.ColumnarTraceSet`, fed in
        ``chunk_ticks`` slices.
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
        ``chunk_ticks`` elements at a time on a table backend (which
        batches the engine work without changing any verdict tick),
        one element at a time otherwise.  A ``stop_on_detection`` check
        always reads strictly per tick, whatever the backend: buffering
        a chunk would pull live-source ticks past the stopping
        detection.
        """
        if (self._push_groups is not None and self._consequents is None
                and not self._stop_on_detection):
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
