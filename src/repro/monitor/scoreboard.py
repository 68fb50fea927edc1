"""The dynamic scoreboard: event-occurrence bookkeeping for causality.

"The monitor automaton uses a dynamic 'scoreboard' for storing the
information regarding the event occurrences, which is helpful in
implementing the checks related to causality relationships between
events during a run."  (Section 4)

The scoreboard is a *multiset* of event names: the pipelined burst
monitor of Figure 7 adds ``MCmdRd`` once per outstanding transaction,
so the same event may be recorded several times.  ``Chk_evt`` is a
presence test; ``Del_evt`` removes one occurrence.  In a multi-clock
monitor network a single scoreboard instance is shared by all local
monitors — it is the synchronisation medium between clock domains.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.errors import ScoreboardError

__all__ = ["Scoreboard"]


class Scoreboard:
    """A multiset of recorded event occurrences.

    ``strict`` controls ``Del_evt`` on an absent event: the paper's
    algorithm only deletes what it previously added, so a strict
    scoreboard treats that as an internal error; lenient mode clamps at
    zero (useful when experimenting with hand-edited monitors).
    ``log=False`` keeps no operation log (:meth:`history` stays empty):
    the scoreboard of a streaming engine then holds only its counts,
    however long the stream.
    """

    def __init__(self, strict: bool = True, log: bool = True):
        self._counts: Counter = Counter()
        self._strict = bool(strict)
        self._history: Optional[List[Tuple[str, str]]] = [] if log else None

    # -- the paper's three operations -------------------------------------
    def add(self, *events: str) -> None:
        """``Add_evt(e, ...)`` — record one occurrence of each event."""
        for event in events:
            self._counts[event] += 1
            if self._history is not None:
                self._history.append(("add", event))

    def delete(self, *events: str) -> None:
        """``Del_evt(e, ...)`` — remove one occurrence of each event."""
        for event in events:
            if self._counts[event] <= 0:
                if self._strict:
                    raise ScoreboardError(
                        f"Del_evt({event}): event not present on scoreboard"
                    )
                self._counts[event] = 0
                continue
            self._counts[event] -= 1
            if self._history is not None:
                self._history.append(("del", event))

    def contains(self, event: str) -> bool:
        """``Chk_evt(e)`` — is at least one occurrence recorded?"""
        return self._counts[event] > 0

    # -- inspection --------------------------------------------------------
    def count(self, event: str) -> int:
        """Number of recorded occurrences of ``event``."""
        return self._counts[event]

    def snapshot(self) -> Dict[str, int]:
        """Current contents as an event -> count map (positive only)."""
        return {e: c for e, c in self._counts.items() if c > 0}

    def history(self) -> List[Tuple[str, str]]:
        """Chronological list of ``("add"|"del", event)`` operations
        (empty when the scoreboard keeps no log)."""
        return list(self._history or ())

    def restore(self, snapshot: Dict[str, int]) -> None:
        """Reset contents to a previously taken :meth:`snapshot`."""
        self._counts = Counter(
            {e: c for e, c in snapshot.items() if c > 0}
        )

    def clear(self) -> None:
        self._counts.clear()

    def is_empty(self) -> bool:
        return not any(c > 0 for c in self._counts.values())

    def __contains__(self, event: str) -> bool:
        return self.contains(event)

    def __len__(self) -> int:
        return sum(c for c in self._counts.values() if c > 0)

    def __repr__(self):
        inside = ", ".join(
            f"{e}x{c}" if c > 1 else e
            for e, c in sorted(self.snapshot().items())
        )
        return f"Scoreboard[{inside}]"
