"""Tests for the SAT solver and the Quine-McCluskey minimiser."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.expr import (
    FALSE,
    TRUE,
    And,
    EventRef,
    Expr,
    Not,
    Or,
    PropRef,
    ScoreboardCheck,
)
from repro.logic.qm import Implicant, minimize_expr, minimum_cover, prime_implicants
from repro.logic.sat import (
    are_equivalent,
    entails,
    is_satisfiable,
    is_tautology,
    jointly_satisfiable,
    satisfying_assignment,
)
from repro.logic.valuation import Valuation, enumerate_valuations

_SYMBOLS = ["a", "b", "c"]


def _random_expr(draw_depth, rng):
    raise NotImplementedError  # replaced by hypothesis strategy below


@st.composite
def exprs(draw, depth=3):
    """Random expressions over three event symbols."""
    if depth == 0:
        return draw(
            st.sampled_from(
                [EventRef("a"), EventRef("b"), EventRef("c"), TRUE, FALSE]
            )
        )
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(exprs(depth=0))
    if kind == 1:
        return Not(draw(exprs(depth=depth - 1)))
    args = tuple(
        draw(exprs(depth=depth - 1)) for _ in range(draw(st.integers(1, 3)))
    )
    return And(args) if kind == 2 else Or(args)


def _truth_table(expr: Expr):
    return tuple(
        expr.evaluate(v) for v in enumerate_valuations(_SYMBOLS)
    )


# ---------------------------------------------------------------- SAT ----
def test_satisfiable_simple():
    a, b = EventRef("a"), EventRef("b")
    assert is_satisfiable(And((a, b)))
    assert not is_satisfiable(And((a, Not(a))))


def test_tautology_and_entailment():
    a, b = EventRef("a"), EventRef("b")
    assert is_tautology(Or((a, Not(a))))
    assert not is_tautology(a)
    assert entails(And((a, b)), a)
    assert not entails(a, And((a, b)))


def test_jointly_satisfiable_is_paper_compatibility_check():
    req = EventRef("req")
    addr = EventRef("addr")
    assert jointly_satisfiable(req, addr)
    assert jointly_satisfiable(And((req, addr)), req)
    assert not jointly_satisfiable(req, Not(req))


def test_satisfying_assignment_decodes_atoms():
    expr = And((EventRef("e"), Not(PropRef("p")), ScoreboardCheck("x")))
    model = satisfying_assignment([expr])
    assert model is not None
    assert model[("e", "e")] is True
    assert model[("p", "p")] is False
    assert model[("chk", "x")] is True


def test_unsat_returns_none():
    a = EventRef("a")
    assert satisfying_assignment([a, Not(a)]) is None


def test_chk_evt_treated_as_free_variable():
    # Chk_evt(e) and the event e itself are independent variables.
    expr = And((EventRef("e"), Not(ScoreboardCheck("e"))))
    assert is_satisfiable(expr)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_sat_agrees_with_truth_table(expr):
    brute = any(_truth_table(expr))
    assert is_satisfiable(expr) == brute


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_equivalence_agrees_with_truth_table(left, right):
    brute = _truth_table(left) == _truth_table(right)
    assert are_equivalent(left, right) == brute


# ------------------------------------------------------ Quine-McCluskey ----
def test_implicant_merge_and_cover():
    low = Implicant(0b00, 0, 2)
    high = Implicant(0b01, 0, 2)
    merged = low.try_merge(high)
    assert merged is not None
    assert merged.covers(0b00) and merged.covers(0b01)
    assert not merged.covers(0b10)
    assert merged.literal_count() == 1


def test_prime_implicants_classic_example():
    # f(a,b,c,d) with ON-set {4,8,10,11,12,15}, DC {9,14}: textbook case.
    primes = prime_implicants([4, 8, 10, 11, 12, 15], [9, 14], 4)
    rendered = {repr(p) for p in primes}
    assert "10--" in rendered  # a & !b
    cover = minimum_cover([4, 8, 10, 11, 12, 15], primes)
    for minterm in (4, 8, 10, 11, 12, 15):
        assert any(term.covers(minterm) for term in cover)


def test_minimize_expr_exact_small():
    a, b = EventRef("a"), EventRef("b")
    # ON-set {ab, a!b} == a
    result = minimize_expr([0b10, 0b11], [a, b])
    assert are_equivalent(result, a)
    assert result == a


def test_minimize_expr_constants():
    a = EventRef("a")
    assert minimize_expr([], [a]) == FALSE
    assert minimize_expr([0, 1], [a]) == TRUE


def test_minimize_expr_with_dont_cares():
    a, b = EventRef("a"), EventRef("b")
    # ON {11}, DC {10}: minimiser may use 'a' alone.
    result = minimize_expr([0b11], [a, b], dont_cares=[0b10])
    assert result == a


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_minimize_expr_preserves_onset(on_set, dc_set):
    dc_only = dc_set - on_set
    atoms = [EventRef(s) for s in _SYMBOLS]
    result = minimize_expr(on_set, atoms, dont_cares=dc_only)
    for index, valuation in enumerate(
        Valuation(
            {s for bit, s in zip((4, 2, 1), _SYMBOLS) if m & bit}, _SYMBOLS
        )
        for m in range(8)
    ):
        pass
    for m in range(8):
        valuation = Valuation(
            {s for bit, s in zip((4, 2, 1), _SYMBOLS) if m & bit}, _SYMBOLS
        )
        value = result.evaluate(valuation)
        if m in on_set:
            assert value is True
        elif m not in dc_only:
            assert value is False

