"""Tier-1 wrapper for the engine-dispatch lint.

CI runs ``tools/lint_engine_dispatch.py`` as its own step; this test
keeps the same guarantee inside the plain pytest run — no module under
``src/`` may branch on a backend name outside the registry — and pins
the lint's own detector against the shapes it must catch and the
shapes it must leave alone.
"""

import importlib.util
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOOL = os.path.join(_ROOT, "tools", "lint_engine_dispatch.py")

_spec = importlib.util.spec_from_file_location("lint_engine_dispatch", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def test_src_tree_is_clean():
    offenders = lint.scan(_ROOT)
    assert offenders == [], "\n".join(offenders)


def _hits(line):
    return any(p.search(line) for p in lint.PATTERNS)


@pytest.mark.parametrize("line", [
    'if engine == "vector":',
    "if engine != 'compiled':",
    'if "compiled" == args.engine:',
    'if self._engine == "interpreted":',
    'if checker.engine == "auto":',
    'if args.engine in ("compiled", "vector"):',
    'if engine not in ["vector"]:',
    'if engine == "native":',
])
def test_detector_catches_raw_dispatch(line):
    assert _hits(line), line


@pytest.mark.parametrize("line", [
    'def run(self, engine="auto"):',       # default value
    'checker = StreamingChecker(chart, engine="vector")',  # kwarg
    'plan = plan_execution(m, w, engine, capability="batch")',
    'if engine != AUTO:',                  # sentinel constant, not literal
    'name = "compiled"',                   # plain assignment
])
def test_detector_allows_names_as_data(line):
    assert not _hits(line), line
