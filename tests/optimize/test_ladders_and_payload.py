"""Ladder hardening, payload slimming, and the encode cache."""

import pickle

import pytest

from repro.logic.expr import (
    EventRef,
    Not,
    ScoreboardCheck,
    TRUE,
    intern_expr,
)
from repro.monitor.automaton import AddEvt, DelEvt, Monitor, Transition
from repro.monitor.engine import run_monitor
from repro.monitor.scoreboard import Scoreboard
from repro.optimize import harden_ladders, optimize_monitor
from repro.optimize.ladders import prove_first_match
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.compiled import compile_monitor, run_compiled
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace
from repro.synthesis.tr import tr, tr_compiled


# -------------------------------------------------------- hardening ----
def test_harden_ladders_proves_tr_output_exclusive():
    monitor = tr(ocp_simple_read_chart())
    compiled = compile_monitor(monitor)
    assert not compiled.ladder_exclusive  # lowered form: full scan
    hardened = harden_ladders(compiled)
    assert hardened.ladder_exclusive
    # Total ladders got their last check collapsed to the None floor.
    floors = [
        cell[-1][0]
        for row in hardened._table for cell in row
        if isinstance(cell, tuple)
    ]
    assert floors and all(floor is None for floor in floors)
    generator = TraceGenerator(ocp_simple_read_chart(), seed=5)
    for index in range(12):
        trace = (generator.random_trace(15) if index % 2
                 else generator.satisfying_trace(prefix=1, suffix=2))
        assert (run_compiled(hardened, trace).detections
                == run_compiled(compiled, trace).detections
                == run_monitor(monitor, trace).detections)


def test_harden_ladders_keeps_nondeterministic_cells_full_scan():
    # Both Chk rungs can pass at once with different targets — the
    # proof must fail and the full-scan (error-reporting) form stays.
    monitor = Monitor(
        "nd", n_states=3, initial=0, final=2,
        transitions=[
            Transition(0, TRUE, (AddEvt("x"), AddEvt("y")), 1),
            Transition(1, ScoreboardCheck("x"), (), 2),
            Transition(1, ScoreboardCheck("y"), (), 1),
            Transition(1, Not(ScoreboardCheck("x"))
                       & Not(ScoreboardCheck("y")), (), 1),
            Transition(2, TRUE, (), 2),
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    assert harden_ladders(compiled) is compiled


def test_harden_cell_requires_chk_only_residues():
    # A residue reading an input symbol is mask-dependent: no proof.
    monitor = Monitor(
        "mixed", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, EventRef("a") & ScoreboardCheck("x"), (), 1),
            Transition(0, Not(EventRef("a") & ScoreboardCheck("x")), (), 0),
            Transition(1, TRUE, (), 1),
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    ladder = next(
        cell for row in compiled._table for cell in row
        if isinstance(cell, tuple)
    )
    assert prove_first_match(ladder) is None


# --------------------------------------------------- payload slimming ----
def test_optimized_pickle_not_larger_than_dense_baseline():
    chart = ocp_simple_read_chart()
    dense = tr_compiled(chart)
    optimized = optimize_monitor(tr(chart)).compiled
    assert (len(pickle.dumps(optimized.without_source()))
            <= len(pickle.dumps(dense.without_source())))


def test_optimized_compiled_carries_carrier_transitions():
    result = optimize_monitor(tr(ocp_simple_read_chart()))
    # The interpreted artifact keeps its full guards; the compiled
    # artifact's transitions hold only scoreboard residues.
    from repro.logic.expr import symbols_of

    assert any(symbols_of(t.guard) for t in result.monitor.transitions)
    assert not any(symbols_of(t.guard) for t in result.compiled.transitions)
    # Cells reference exactly the listed carrier objects (coverage
    # folding relies on this identity).
    listed = set(map(id, result.compiled.transitions))
    for row in result.compiled._table:
        for cell in row:
            if cell is None:
                continue
            rungs = cell if isinstance(cell, tuple) else ((None, cell),)
            for _, transition in rungs:
                assert id(transition) in listed


def test_factor_guard_preserves_semantics_exhaustively():
    """Factoring must be evaluation-equivalent — including the
    bare-pivot absorption case, where non-pivot terms must survive
    (regression: `(b & c) | b | a` once factored to just `b`)."""
    from itertools import combinations

    from repro.logic.expr import And, Or
    from repro.logic.valuation import Valuation
    from repro.optimize.pipeline import _factor_guard

    a, b, c, d = (EventRef(n) for n in "abcd")
    guards = [
        Or(((b & c), b, a)),
        Or(((a & b), (a & c))),
        Or(((a & b), (a & c), (d & b), (d & c))),
        Or((a, (a & b))),
        Or(((Not(a) & Not(b)), (Not(a) & Not(c)),
            (Not(d) & Not(b)), (Not(d) & Not(c)))),
        Or(((a & b & c), (a & b & d), b)),
    ]
    symbols = ["a", "b", "c", "d"]
    for guard in guards:
        factored = _factor_guard(guard)
        for size in range(len(symbols) + 1):
            for true in combinations(symbols, size):
                valuation = Valuation(true, symbols)
                assert (factored.evaluate(valuation)
                        == guard.evaluate(valuation)), (guard, true)


def test_intern_expr_shares_equal_subtrees():
    left = (EventRef("a") & EventRef("b")) | (EventRef("a") & EventRef("c"))
    right = (EventRef("a") & EventRef("b")) | EventRef("d")
    cache: dict = {}
    interned_left = intern_expr(left, cache)
    interned_right = intern_expr(right, cache)
    assert interned_left == left and interned_right == right
    assert interned_left.args[0] is interned_right.args[0]


# ------------------------------------------------------ encode cache ----
def test_encode_cache_never_serves_stale_masks_for_mutable_input():
    """Identity keying is only sound for immutable Trace objects; a
    plain list re-encodes every time (regression: a list truncated in
    place used to be checked as if it still had its old contents)."""
    from repro.runtime.compiled import run_many

    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    generator = TraceGenerator(chart, seed=91)
    trace = generator.satisfying_trace(prefix=1, suffix=1)
    as_list = list(trace.valuations)
    first = run_many(compiled, [as_list])[0]
    assert first.ticks == len(as_list)
    del as_list[len(as_list) // 2:]
    second = run_many(compiled, [as_list])[0]
    assert second.ticks == len(as_list)
    assert len(second.states) == len(as_list) + 1


def test_encode_many_bypasses_cache_for_oversized_batches():
    from repro.logic import codec as codec_module
    from repro.logic.codec import _TRACE_CACHE_LIMIT, AlphabetCodec

    codec_module.clear_trace_cache()
    codec = AlphabetCodec({"a"})
    traces = [Trace.from_sets([{"a"}], alphabet={"a"})
              for _ in range(_TRACE_CACHE_LIMIT)]
    encoded = codec.encode_many(traces)
    assert [list(m) for m in encoded] == [[1]] * len(traces)
    stats = codec_module.trace_cache_info()
    assert stats["misses"] == 0 and stats["entries"] == 0


def test_encode_trace_cache_shared_by_equal_codecs():
    from repro.logic import codec as codec_module
    from repro.logic.codec import AlphabetCodec

    codec_module.clear_trace_cache()
    trace = Trace.from_sets([{"a"}, set(), {"b"}], alphabet={"a", "b"})
    left = AlphabetCodec({"a", "b"})
    right = AlphabetCodec({"b", "a"})
    first = left.encode_trace(trace)
    assert list(first) == [left.encode(v) for v in trace]
    second = right.encode_trace(trace)
    assert second is first  # equal codecs share the cache entry
    stats = codec_module.trace_cache_info()
    assert stats["misses"] == 1 and stats["hits"] == 1
