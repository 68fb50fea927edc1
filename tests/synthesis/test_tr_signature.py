"""The signature-keyed ``Tr`` table fill equals the per-valuation loop.

``synthesize_compiled`` builds one ladder and one cell per (state,
satisfaction signature) and fills each row by lookup.  The reference
below is the loop it replaced — :func:`candidate_ladder` for every
(state, mask) — kept here verbatim as the oracle.  The two tables must
agree cell for cell: the same cells shared by identity, the same rung
order and check conditions, and the same carrier transitions in the
same order.
"""

from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.logic.codec import AlphabetCodec
from repro.logic.expr import And, EventRef, Expr, Not, Or, PropRef
from repro.monitor.automaton import Transition
from repro.protocols.readproto import read_protocol_chart
from repro.runtime.compiled import CompiledCheck, CompiledMonitor
from repro.synthesis.causality import actions_for_move
from repro.synthesis.pattern import FlatArrow, FlatPattern, extract_pattern
from repro.synthesis.tr import (
    _with_extra_checks,
    check_conjunction,
    synthesize_compiled,
)
from repro.synthesis.transition import candidate_ladder, pattern_compatibility


def _reference_compiled(pattern, name=None, extra_adds=None,
                        extra_checks=None):
    """The per-valuation table fill: one ladder per (state, mask)."""
    if extra_checks:
        pattern = _with_extra_checks(pattern, extra_checks)
    n = pattern.length
    codec = AlphabetCodec(pattern.alphabet)
    compatibility = pattern_compatibility(pattern)
    interned: Dict[tuple, Transition] = {}
    closures: Dict[FrozenSet[str], object] = {}
    cells: Dict[tuple, tuple] = {}
    table = []
    for state in range(n + 1):
        row = []
        for mask in codec.all_masks():
            ladder = candidate_ladder(
                pattern, state, codec.decode(mask), compatibility
            )
            rungs = []
            failed_above: List[Expr] = []
            for rung in ladder:
                condition = check_conjunction(rung.checks)
                actions = actions_for_move(
                    pattern, state, rung.target, extra_adds
                )
                key = (state, rung.target, actions, rung.checks,
                       tuple(failed_above))
                transition = interned.get(key)
                if transition is None:
                    guard = And(
                        (condition,) + tuple(failed_above)
                    ).simplify()
                    transition = Transition(state, guard, actions,
                                            rung.target)
                    interned[key] = transition
                if rung.checks:
                    closure = closures.get(rung.checks)
                    if closure is None:
                        closure = CompiledCheck(condition, codec)
                        closures[rung.checks] = closure
                    rungs.append((closure, transition))
                    failed_above.append(Not(condition))
                else:
                    rungs.append((None, transition))
                    break
            if len(rungs) == 1 and rungs[0][0] is None:
                row.append(rungs[0][1])
            else:
                cell = tuple(rungs)
                row.append(cells.setdefault(cell, cell))
        table.append(row)
    return CompiledMonitor(
        name or pattern.name, n_states=n + 1, initial=0, final=n,
        codec=codec, table=table, transitions=interned.values(),
        props=pattern.props, ladder_exclusive=True,
    )


def _shape(compiled) -> Tuple[list, list, list]:
    """The table with every object replaced by its first-seen index.

    Transitions are numbered by their position in ``transitions``, so
    equal shapes mean equal sharing of cells, checks and transitions,
    equal rung order, and equal transition order.
    """
    transition_index = {id(t): i for i, t in enumerate(compiled.transitions)}
    cell_index: Dict[int, int] = {}
    checks: List[CompiledCheck] = []
    check_index: Dict[int, int] = {}
    rows = []
    for row in compiled.table:
        shaped = []
        for cell in row:
            if type(cell) is tuple:
                number = cell_index.setdefault(id(cell), len(cell_index))
                rungs = []
                for check, transition in cell:
                    if check is None:
                        checked = None
                    else:
                        checked = check_index.get(id(check))
                        if checked is None:
                            checked = check_index[id(check)] = len(checks)
                            checks.append(check)
                    rungs.append((checked, transition_index[id(transition)]))
                shaped.append(("ladder", number, tuple(rungs)))
            else:
                shaped.append(("step", transition_index[id(cell)]))
        rows.append(shaped)
    return rows, [check.expr for check in checks], [
        (t.source, t.guard, t.actions, t.target)
        for t in compiled.transitions
    ]


def _assert_same_tables(got, want):
    assert got.name == want.name
    assert (got.n_states, got.initial, got.final) == \
        (want.n_states, want.initial, want.final)
    assert got.codec.symbols == want.codec.symbols
    assert got.props == want.props
    assert got.ladder_exclusive == want.ladder_exclusive
    got_rows, got_checks, got_transitions = _shape(got)
    want_rows, want_checks, want_transitions = _shape(want)
    assert got_transitions == want_transitions
    assert got_checks == want_checks
    assert got_rows == want_rows


def _guarded_pattern():
    """Pattern elements beyond plain event conjunctions: a negated
    proposition, a disjunction, and a repeated element, with arrows."""
    a, b, c = EventRef("a"), EventRef("b"), EventRef("c")
    p = PropRef("p")
    return FlatPattern(
        "guarded",
        [And((a, Not(p))), Or((b, c)), a, And((c, p))],
        arrows=[
            FlatArrow("x", 0, "a", 2, "a"),
            FlatArrow("y", 1, "b", 3, "c"),
        ],
        props={"p"},
    )


CHART_NAMES = ("ocp_simple", "ocp_burst", "amba_ahb",
               "random_a", "random_b", "random_c")


@pytest.mark.parametrize("which", CHART_NAMES)
def test_signature_fill_equals_per_valuation_loop(which, diff_harness):
    pattern = extract_pattern(diff_harness.chart(which))
    _assert_same_tables(synthesize_compiled(pattern),
                        _reference_compiled(pattern))


# The seeds of the fuzz differential suite (tests/fuzz/test_differential.py).
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_signature_fill_on_fuzz_charts(seed, diff_harness):
    pattern = extract_pattern(diff_harness.random_chart(seed))
    _assert_same_tables(synthesize_compiled(pattern),
                        _reference_compiled(pattern))


def test_signature_fill_on_the_read_protocol():
    pattern = extract_pattern(read_protocol_chart())
    _assert_same_tables(synthesize_compiled(pattern),
                        _reference_compiled(pattern))


def test_signature_fill_on_guarded_elements():
    pattern = _guarded_pattern()
    got = synthesize_compiled(pattern)
    _assert_same_tables(got, _reference_compiled(pattern))
    assert got.has_checks()


def test_signature_fill_with_cross_domain_obligations(diff_harness):
    """``extra_adds``/``extra_checks`` (multi-clock local charts) take
    the same path."""
    pattern = extract_pattern(diff_harness.chart("ocp_burst"))
    extra_adds = {0: frozenset({"MCmd_rd"})}
    extra_checks = {1: frozenset({"remote_req"})}
    _assert_same_tables(
        synthesize_compiled(pattern, name="local", extra_adds=extra_adds,
                            extra_checks=extra_checks),
        _reference_compiled(pattern, name="local", extra_adds=extra_adds,
                            extra_checks=extra_checks),
    )
