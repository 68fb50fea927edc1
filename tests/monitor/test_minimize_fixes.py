"""Regression tests for ``transition_function``'s guard and cap fixes.

1. ``_guard_holds`` used to catch bare ``Exception`` and relabel every
   guard-evaluation failure as "scoreboard-dependent"; now only the
   scoreboard-check error (:class:`~repro.errors.ExprError`) converts,
   chained, and everything else propagates.
2. ``transition_function`` enumerated ``2^|Sigma|`` valuations with no
   cap, hanging on wide alphabets that ``AlphabetCodec`` correctly
   refuses; it now shares the codec's ``MAX_CODEC_SYMBOLS`` limit with
   a clear ``MonitorError``.
"""

import time

import pytest

from repro.analysis.equivalence import transition_function
from repro.errors import ExprError, MonitorError
from repro.logic.codec import MAX_CODEC_SYMBOLS
from repro.logic.expr import TRUE, Expr, Not, ScoreboardCheck
from repro.monitor.automaton import Monitor, Transition


def _self_loop(alphabet):
    return Monitor(
        "loop", n_states=1, initial=0, final=0,
        transitions=[Transition(0, TRUE, (), 0)],
        alphabet=alphabet,
    )


# ---------------------------------------------------- error relabelling ----
class _Boom(Expr):
    """A guard whose evaluation fails for a non-scoreboard reason."""

    __slots__ = ()

    def evaluate(self, valuation, scoreboard=None):
        raise RuntimeError("malformed guard")

    def atoms(self):
        return frozenset()


def test_guard_holds_reraises_non_scoreboard_errors():
    monitor = Monitor(
        "broken", n_states=1, initial=0, final=0,
        transitions=[Transition(0, _Boom(), (), 0)],
        alphabet={"a"},
    )
    with pytest.raises(RuntimeError, match="malformed guard"):
        transition_function(monitor)


def test_guard_holds_chains_the_scoreboard_error():
    monitor = Monitor(
        "chk", n_states=1, initial=0, final=0,
        transitions=[
            Transition(0, ScoreboardCheck("x"), (), 0),
            Transition(0, Not(ScoreboardCheck("x")), (), 0),
        ],
        alphabet={"a"},
    )
    with pytest.raises(MonitorError, match="scoreboard-dependent") as info:
        transition_function(monitor)
    assert isinstance(info.value.__cause__, ExprError)


# --------------------------------------------------------- alphabet cap ----
def test_transition_function_refuses_wide_alphabets_fast():
    wide = _self_loop({f"s{i}" for i in range(MAX_CODEC_SYMBOLS + 5)})
    start = time.perf_counter()
    with pytest.raises(MonitorError, match="valuation-enumeration cap"):
        transition_function(wide)
    assert time.perf_counter() - start < 1.0  # refused, not enumerated


def test_cap_boundary_is_shared_with_the_codec():
    at_cap = _self_loop({f"s{i}" for i in range(MAX_CODEC_SYMBOLS + 1)})
    with pytest.raises(MonitorError):
        transition_function(at_cap)
    # MAX_CODEC_SYMBOLS itself is legal for the codec, so the table
    # must accept it too — but enumerating 2^20 valuations here would
    # make the suite crawl, so exercise a comfortably-legal width.
    small = _self_loop({"a", "b", "c"})
    assert len(transition_function(small)) == 8
