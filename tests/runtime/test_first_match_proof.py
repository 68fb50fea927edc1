"""The lowering's first-match proof for full-scan check ladders.

:func:`~repro.runtime.lowering.prove_first_match` decides which
ladder cells of a lowered (full-scan) monitor the table IR marks
``safe``, so the C stepper skips their run-time conflict scan.
"""

from repro.logic.expr import EventRef, Not, ScoreboardCheck, TRUE
from repro.monitor.automaton import AddEvt, Monitor, Transition
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime.compiled import compile_monitor
from repro.runtime.lowering import VectorTable, prove_first_match
from repro.synthesis.tr import tr


def _ladders(compiled):
    return [cell for row in compiled._table for cell in row
            if isinstance(cell, tuple)]


def _ladder_plans(compiled):
    return [spec.plan for spec in VectorTable(compiled).specs
            if spec.kind == "ladder"]


def test_prove_first_match_proves_lowered_tr_ladders():
    # Tr guards carry the negation of the residues above them, so the
    # full-scan form compile_monitor builds is provably first-match.
    compiled = compile_monitor(tr(ocp_simple_read_chart()))
    assert not compiled.ladder_exclusive  # lowered form: full scan
    ladders = _ladders(compiled)
    assert ladders and all(prove_first_match(cell) for cell in ladders)
    plans = _ladder_plans(compiled)
    assert plans and all(plan.safe for plan in plans)


def test_prove_first_match_refuses_nondeterministic_cells():
    # Both Chk rungs can pass at once with different targets — the
    # proof must fail and the cell keeps the conflict scan.
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
    ladders = _ladders(compiled)
    assert ladders and not any(prove_first_match(cell) for cell in ladders)
    plans = _ladder_plans(compiled)
    assert plans and not any(plan.safe for plan in plans)


def test_prove_first_match_requires_chk_only_residues():
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
    ladder = _ladders(compile_monitor(monitor))[0]
    assert not prove_first_match(ladder)
