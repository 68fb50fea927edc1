#!/usr/bin/env python
"""Fail when raw engine-name dispatch appears outside the registry.

PR 9 moved every backend-selection decision into
``src/repro/runtime/engines.py``; this lint keeps it there.  It greps
the source tree for comparisons of an engine-ish name against a quoted
backend literal — the ``engine == "vector"`` / ``"compiled" != engine``
/ ``engine in ("compiled", ...)`` shapes that used to be scattered
across nine modules — and exits non-zero listing every offender.

Run directly (CI) or through ``tests/test_engine_lint.py`` (tier-1):

    python tools/lint_engine_dispatch.py

Keyword arguments (``engine="vector"``) and default values are fine —
names-as-data is the point of the registry; it is *branching* on the
name outside the registry that re-scatters dispatch.
"""

from __future__ import annotations

import os
import re
import sys

#: The one module allowed to branch on backend names.
ALLOWED = {os.path.join("repro", "runtime", "engines.py")}

#: Registered backend names plus the planner sentinel.
_NAMES = r"(?:auto|interpreted|compiled|vector|native)"
_QUOTED = rf"""["']{_NAMES}["']"""
#: Anything engine-ish on either side of the compare: bare ``engine``,
#: ``args.engine``, ``self._engine_backend``, ``checker.engine``...
_VAR = r"[\w.]*engine[\w.]*"

PATTERNS = [
    # engine == "vector" / engine != 'compiled'
    re.compile(rf"{_VAR}\s*[!=]=\s*{_QUOTED}"),
    # "vector" == engine
    re.compile(rf"{_QUOTED}\s*[!=]=\s*{_VAR}"),
    # engine in ("compiled", ...) / engine not in ["vector"]
    re.compile(rf"{_VAR}\s+(?:not\s+)?in\s+[(\[{{]\s*{_QUOTED}"),
]


def scan(root: str) -> list:
    offenders = []
    src = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(src):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, src)
            if relative in ALLOWED:
                continue
            with open(path, encoding="utf-8") as stream:
                for number, line in enumerate(stream, 1):
                    stripped = line.split("#", 1)[0]
                    if any(p.search(stripped) for p in PATTERNS):
                        offenders.append(
                            f"{os.path.relpath(path, root)}:{number}: "
                            f"{line.strip()}"
                        )
    return offenders


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    offenders = scan(root)
    if offenders:
        print("engine dispatch outside runtime/engines.py "
              "(route through the registry instead):")
        for offender in offenders:
            print(f"  {offender}")
        return 1
    print("engine-dispatch lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
