"""Shared helpers for the figure-reproduction benchmarks.

Every bench both *times* its core operation (pytest-benchmark) and
*regenerates the paper artifact* — the monitor structure, detection
series or flow metric the corresponding figure shows.  Regenerated
artifacts are asserted structurally and appended to
``benchmarks/_reports/<bench>.txt`` so the numbers quoted in
EXPERIMENTS.md can be reproduced with a single pytest run.
"""

from __future__ import annotations

import json
import pathlib
from typing import AbstractSet

import pytest

_REPORT_DIR = pathlib.Path(__file__).parent / "_reports"


@pytest.fixture()
def report(request):
    """Append lines to this bench's report file (and echo with -s)."""
    _REPORT_DIR.mkdir(exist_ok=True)
    path = _REPORT_DIR / (request.module.__name__.split(".")[-1] + ".txt")
    lines = []

    def write(line: str = "") -> None:
        lines.append(str(line))
        print(line)

    yield write
    if lines:
        with path.open("a") as stream:
            stream.write(f"--- {request.node.name} ---\n")
            stream.write("\n".join(lines) + "\n")


def record_results(path: pathlib.Path, keys: AbstractSet[str],
                   results: dict) -> None:
    """Merge ``results`` into the JSON file at ``path``.

    ``keys`` is every top-level key the calling bench module writes.
    Recording a key outside it raises, and stored keys outside it are
    dropped, so a deleted bench leg leaves no stale value behind.
    """
    undeclared = sorted(set(results) - set(keys))
    if undeclared:
        raise KeyError(f"{path.name}: undeclared result keys {undeclared}")
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (ValueError, OSError):
            existing = {}
    merged = {key: value for key, value in existing.items() if key in keys}
    merged.update(results)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
