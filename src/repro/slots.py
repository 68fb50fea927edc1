"""Pickle support for the immutable ``__slots__`` value classes.

Most of the core value types (:class:`~repro.logic.valuation.Valuation`,
expressions, transitions, traces, codecs, compiled monitors) are
slotted and guard themselves with a ``__setattr__`` that raises — which
also breaks the *default* pickle path, because unpickling a slotted
object restores state via ``setattr``.  Compiled monitors, traces and
batch results are plain data a caller may store or send elsewhere, so
these classes must round-trip through pickle exactly.

:class:`SlotPickle` restores state with ``object.__setattr__`` instead,
collecting every slot along the MRO.  It adds no per-instance storage
(empty ``__slots__``) and changes nothing about normal attribute
behaviour.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["SlotPickle"]


class SlotPickle:
    """Mixin making immutable slotted classes picklable.

    State is the mapping of every slot (across the MRO) to its value;
    restoration bypasses the subclass's raising ``__setattr__``.
    """

    __slots__ = ()

    def __getstate__(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot not in state and hasattr(self, slot):
                    state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
