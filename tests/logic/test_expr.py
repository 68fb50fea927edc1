"""Unit tests for the Boolean expression AST."""

import pytest

from repro.errors import ExprError
from repro.logic.expr import (
    FALSE,
    TRUE,
    And,
    Const,
    EventRef,
    Not,
    Or,
    PropRef,
    ScoreboardCheck,
    all_of,
    any_of,
    event_symbols_of,
    prop_symbols_of,
    scoreboard_checks_of,
    symbols_of,
)
from repro.logic.valuation import Valuation


class _FakeScoreboard:
    def __init__(self, present):
        self._present = set(present)

    def contains(self, event):
        return event in self._present


def test_const_evaluation():
    assert TRUE.evaluate(Valuation()) is True
    assert FALSE.evaluate(Valuation()) is False


def test_event_ref_evaluates_against_valuation():
    expr = EventRef("req")
    assert expr.evaluate(Valuation({"req"})) is True
    assert expr.evaluate(Valuation({"ack"})) is False


def test_prop_ref_evaluates_against_valuation():
    expr = PropRef("mode")
    assert expr.evaluate(Valuation({"mode"})) is True
    assert expr.evaluate(Valuation()) is False


def test_and_or_not_evaluation():
    req, ack = EventRef("req"), EventRef("ack")
    both = And((req, ack))
    either = Or((req, ack))
    assert both.evaluate(Valuation({"req", "ack"})) is True
    assert both.evaluate(Valuation({"req"})) is False
    assert either.evaluate(Valuation({"ack"})) is True
    assert Not(req).evaluate(Valuation()) is True


def test_operator_overloads():
    req, ack = EventRef("req"), EventRef("ack")
    expr = (req & ~ack) | ack
    assert expr.evaluate(Valuation({"req"})) is True
    assert expr.evaluate(Valuation({"ack"})) is True
    assert expr.evaluate(Valuation()) is False


def test_nary_flattening_and_dedup():
    a, b, c = EventRef("a"), EventRef("b"), EventRef("c")
    nested = And((And((a, b)), And((b, c))))
    assert nested.args == (a, b, c)


def test_structural_equality_and_hash():
    left = And((EventRef("a"), PropRef("p")))
    right = And((EventRef("a"), PropRef("p")))
    assert left == right
    assert hash(left) == hash(right)
    assert left != Or((EventRef("a"), PropRef("p")))


def test_event_and_prop_refs_are_distinct():
    assert EventRef("x") != PropRef("x")


def test_scoreboard_check_requires_scoreboard():
    check = ScoreboardCheck("req")
    with pytest.raises(ExprError):
        check.evaluate(Valuation({"req"}))
    assert check.evaluate(Valuation(), _FakeScoreboard({"req"})) is True
    assert check.evaluate(Valuation(), _FakeScoreboard([])) is False


def test_simplify_constant_folding():
    a = EventRef("a")
    assert And((a, TRUE)).simplify() == a
    assert And((a, FALSE)).simplify() == FALSE
    assert Or((a, FALSE)).simplify() == a
    assert Or((a, TRUE)).simplify() == TRUE
    assert Not(Not(a)).simplify() == a
    assert Not(TRUE).simplify() == FALSE


def test_simplify_complementary_literals():
    a = EventRef("a")
    assert And((a, Not(a))).simplify() == FALSE
    assert Or((a, Not(a))).simplify() == TRUE


def test_nnf_pushes_negations_inward():
    a, b = EventRef("a"), EventRef("b")
    expr = Not(And((a, Or((b, Not(a))))))
    nnf = expr.nnf()

    def no_negated_compound(node):
        if isinstance(node, Not):
            assert not isinstance(node.operand, (And, Or, Not))
        for child in node.children():
            no_negated_compound(child)

    no_negated_compound(nnf)
    for valuation in (Valuation(s, {"a", "b"}) for s in ({}, {"a"}, {"b"}, {"a", "b"})):
        assert nnf.evaluate(valuation) == expr.evaluate(valuation)


def test_all_of_any_of():
    a, b = EventRef("a"), EventRef("b")
    assert all_of([]) == TRUE
    assert any_of([]) == FALSE
    assert all_of([a]) == a
    assert all_of([a, b]) == And((a, b))
    assert any_of([a, b]) == Or((a, b))


def test_symbol_extraction():
    expr = And((EventRef("e1"), PropRef("p1"), Not(EventRef("e2")),
                ScoreboardCheck("e3")))
    assert symbols_of(expr) == {"e1", "p1", "e2"}
    assert event_symbols_of(expr) == {"e1", "e2"}
    assert prop_symbols_of(expr) == {"p1"}
    assert scoreboard_checks_of(expr) == {"e3"}


def test_immutability():
    atom = EventRef("a")
    with pytest.raises(AttributeError):
        atom.name = "b"
    with pytest.raises(AttributeError):
        And((atom,)).args = ()


def test_bad_atom_names_rejected():
    with pytest.raises(ExprError):
        EventRef("")
    with pytest.raises(ExprError):
        ScoreboardCheck("")


def test_repr_round_trips_through_parser():
    from repro.logic.parser import parse_expr

    expr = Or((And((EventRef("a"), Not(PropRef("p")))), ScoreboardCheck("q")))
    text = repr(expr)
    assert parse_expr(text, props={"p"}) == expr
