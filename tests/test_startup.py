"""Start-up cost: a command imports what its work needs, and no more.

``import repro`` and every subpackage resolve their exported names on
first use (PEP 562), and the CLI imports each verb's modules when it
dispatches that verb.  A table-engine ``check --vcd`` therefore runs
parse, ``tr_compiled``, VCD masks and the planned kernel without the
modules of other verbs, the interpreted engine, the streaming checker
or the corpus store.  Where no ``.pyc`` is written
(``PYTHONDONTWRITEBYTECODE=1``) every command compiles each module it
imports, so the pins bound the non-blank source lines it loads as
well as the module count, and a second run on a warm shared-object
cache loads neither ``subprocess`` (only a compile needs it) nor
``json``.  Everything runs in one process, so no command loads
``multiprocessing``: ``check --vcd``, a ``campaign`` with fault
trials, and a ``repro serve`` that answers a ``corpus`` op are pinned.
No command loads NumPy: ``check --vcd``, a ``check --cache`` miss and
then a hit, ``ingest``, and a ``repro serve`` that streams and answers
a ``corpus`` op.  Every pin is checked with a C compiler and under
``REPRO_NO_CC=1``; the NumPy pins prove something only where NumPy is
installed.
"""

import ast
import importlib
import json
import os
import pkgutil
import signal
import socket
import subprocess
import sys
import types

import pytest

import repro
from repro.protocols.fixtures import ocp_simple_vcd
from repro.protocols.ocp import ocp_simple_read_chart
from repro.synthesis.tr import tr_compiled
from repro.trace.columnar import ColumnarTraceSet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "examples", "ocp_simple_read.cesc")

#: Modules ``check --vcd`` must not load.
NOT_LOADED = (
    "numpy",
    "multiprocessing",
    "repro.analysis",
    "repro.campaign",
    "repro.codegen.psl",
    "repro.codegen.python_gen",
    "repro.codegen.sva",
    "repro.codegen.verilog",
    # The interpreted engine and the assertion stack.
    "repro.monitor.checker",
    "repro.monitor.engine",
    # Gone; the first-match proof the lowering needs is its own.
    "repro.optimize",
    "repro.semantics",
    "repro.serve",
    "repro.sim",
    # The corpus store (``--cache``, ``ingest``) and the streaming
    # checker (``--engine interpreted``, serve).
    "repro.trace.columnar",
    "repro.trace.streaming",
)

#: Ceiling on ``repro.*`` modules ``check --vcd`` loads: the count when
#: this was set plus 2 (36 with a C compiler and 34 without; 42 and 39
#: before the interpreted, streaming and corpus code left the path, 82
#: before the lazy packages).
MAX_REPRO_MODULES = 38

#: Ceiling on the non-blank source lines of those modules, the proxy
#: for what a run without ``.pyc`` files compiles (7,689 with a C
#: compiler and 7,375 without when this was set; 10,025 and 9,328
#: before).
MAX_REPRO_LINES = {"cc": 8000, "no_cc": 7600}

#: ``python -m repro`` with the loaded module names printed at exit.
_RUN_AS_MAIN = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: sys.stderr.write(\n"
    "    'MODULES ' + ' '.join(sorted(sys.modules)) + '\\n'))\n"
    "sys.argv = ['repro'] + sys.argv[1:]\n"
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
)


def _env(cc="cc"):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_NO_CC", None)
    if cc == "no_cc":
        env["REPRO_NO_CC"] = "1"
    return env


def _run_cli(args, env):
    """``python -m repro ARGS``: its result and the modules it loaded."""
    result = subprocess.run(
        [sys.executable, "-c", _RUN_AS_MAIN, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result, _loaded(result.stderr)


def _among(names, modules):
    return [name for name in names
            if any(m == name or m.startswith(name + ".") for m in modules)]


def _source_lines(module: str) -> int:
    """Non-blank lines of a ``repro`` module's source file."""
    path = os.path.join(SRC, *module.split("."))
    path = path + ".py" if os.path.isfile(path + ".py") else \
        os.path.join(path, "__init__.py")
    with open(path, encoding="utf-8") as stream:
        return sum(1 for line in stream if line.strip())


@pytest.mark.parametrize("cc", ["cc", "no_cc"])
def test_check_vcd_loads_only_what_it_runs(cc, tmp_path):
    dump = tmp_path / "ocp.vcd"
    dump.write_text(ocp_simple_vcd(seed=3, repeats=2))
    env = _env(cc)
    # A private shared-object cache: the first run compiles into it,
    # the second finds every object there.
    env["REPRO_NATIVE_CACHE"] = str(tmp_path / "so")
    check = ["check", SPEC, "ocp_simple_read", "--vcd", str(dump),
             "--clock", "clk"]
    (result, modules), (warm, warm_modules) = \
        _run_cli(check, env), _run_cli(check, env)
    assert result.stdout.startswith(f"{dump}: ")
    assert "detections at [" in result.stdout
    assert warm.stdout == result.stdout
    assert _among(NOT_LOADED, modules) == []
    ours = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= MAX_REPRO_MODULES, ours
    lines = sum(map(_source_lines, ours))
    assert lines <= MAX_REPRO_LINES[cc], (lines, ours)
    assert _among(("json", "subprocess"), warm_modules) == []


@pytest.mark.parametrize("cc", ["cc", "no_cc"])
def test_cache_and_ingest_load_no_numpy(cc, tmp_path):
    """A ``check --cache`` miss, then a hit, and both ``ingest`` forms
    read and write ``.rtrc`` without NumPy."""
    dump = tmp_path / "ocp.vcd"
    dump.write_text(ocp_simple_vcd(seed=3, repeats=2))
    env = _env(cc)
    check = ["check", SPEC, "ocp_simple_read", "--vcd", str(dump),
             "--clock", "clk", "--cache", str(tmp_path / "cache")]
    runs = [
        _run_cli(check, env),
        _run_cli(check, env),
        _run_cli(["ingest", SPEC, "ocp_simple_read", "--vcd", str(dump),
                  "--clock", "clk", "--cache", str(tmp_path / "other")],
                 env),
        _run_cli(["ingest", SPEC, "ocp_simple_read", "--vcd", str(dump),
                  "--clock", "clk", "--out", str(tmp_path / "ocp.rtrc")],
                 env),
    ]
    (miss, _), (hit, _) = runs[:2]
    assert miss.stdout == hit.stdout
    assert "detections at [" in hit.stdout
    assert len(list((tmp_path / "cache").glob("*.rtrc"))) == 1
    assert (tmp_path / "ocp.rtrc").is_file()
    assert [_among(("numpy",), modules) for _, modules in runs] == \
        [[]] * len(runs)


@pytest.mark.parametrize("cc", ["cc", "no_cc"])
def test_campaign_loads_no_multiprocessing(cc):
    """Coverage batches and fault trials run in the planned batch
    runner, in this process."""
    result, modules = _run_cli(
        ["campaign", SPEC, "ocp_simple_read", "--budget", "64",
         "--faults", "8"], _env(cc))
    assert result.stdout.startswith("campaign ocp_simple_read: closure")
    assert "faults: " in result.stdout
    assert _among(("multiprocessing", "numpy"), modules) == []


def _loaded(stderr):
    return next(
        line for line in stderr.splitlines()
        if line.startswith("MODULES ")
    ).split()[1:]


#: ``repro serve`` under the module-listing wrapper, stopped by SIGINT
#: (which a background shell job would otherwise hand down ignored).
_SERVE_AS_MAIN = (
    "import signal\n"
    "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    + _RUN_AS_MAIN
)


@pytest.mark.parametrize("cc", ["cc", "no_cc"])
def test_serve_stream_loads_no_numpy(cc, tmp_path):
    """Streams step in C or in the compiled chunk loop, and a corpus
    op loads its ``.rtrc`` into one ``array('i')`` and checks it on the
    event loop: none of it needs NumPy or ``multiprocessing``."""
    codec = tr_compiled(ocp_simple_read_chart()).codec
    corpus = str(tmp_path / "corpus.rtrc")
    ColumnarTraceSet.from_mask_arrays(
        [[mask % codec.size for mask in range(lane, lane + 300)]
         for lane in range(64)], codec.symbols).save(corpus)
    env = _env(cc)
    process = subprocess.Popen(
        [sys.executable, "-c", _SERVE_AS_MAIN, "serve", SPEC,
         "ocp_simple_read", "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = process.stdout.readline()
        assert banner.startswith("serving "), banner
        host, port = banner.split(" on ", 1)[1].split(" ", 1)[0] \
            .rsplit(":", 1)
        requests = [
            {"op": "open", "stream": "s"},
            {"op": "push", "stream": "s",
             "ticks": [["Addr", "MCmd_rd", "SCmd_accept"],
                       ["SData", "SResp"], [], ["MCmd_rd"]] * 50},
            {"op": "close", "stream": "s"},
            {"op": "corpus", "path": corpus},
        ]
        answers = []
        with socket.create_connection((host, int(port)), timeout=60) as sock:
            stream = sock.makefile("rwb")
            for request in requests:
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                answers.append(json.loads(stream.readline()))
                assert answers[-1]["ok"], answers[-1]
        closed, corpus_answer = answers[-2:]
        assert closed["report"]["ticks"] == 200
        assert closed["report"]["n_detections"] == 50
        assert corpus_answer["n_traces"] == 64
        assert corpus_answer["total_ticks"] == 64 * 300
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert _among(("multiprocessing", "numpy"), _loaded(stderr)) == []


def _packages():
    """``repro`` and every subpackage, by name."""
    return ["repro"] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    )


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    for name in exported:
        value = getattr(module, name)
        assert value is not None
        assert not isinstance(value, types.ModuleType), (package, name)
    assert set(exported) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(exported) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(module, "nope")


_SUBMODULE_FIRST = (
    "import sys, types\n"
    "import repro.synthesis.tr\n"
    "from repro.synthesis import tr\n"
    "from repro import tr as top\n"
    "assert not isinstance(tr, types.ModuleType), tr\n"
    "assert tr is top is sys.modules['repro.synthesis.tr'].tr\n"
)


def test_a_name_spelled_like_its_submodule_stays_the_function():
    """``repro.synthesis`` exports ``tr`` from ``repro.synthesis.tr``:
    importing the submodule first must not bind the module over it."""
    result = subprocess.run([sys.executable, "-c", _SUBMODULE_FIRST],
                            env=_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


def test_package_inits_import_no_modules():
    """A package ``__init__`` imports only the lazy-export helper."""
    for package in _packages():
        path = importlib.import_module(package).__file__
        with open(path, encoding="utf-8") as stream:
            tree = ast.parse(stream.read())
        imports = [
            node.module if isinstance(node, ast.ImportFrom)
            else node.names[0].name
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports in ([], ["repro._lazy"]), (package, imports)


#: ``(old home, name, defining module)`` of names a start-up cut moved
#: off the ``check --vcd`` path; the old paths resolve on first use.
MOVED = (
    ("repro.monitor.engine", "MonitorResult", "repro.runtime.compiled"),
    ("repro.runtime.compiled", "CompiledEngine", "repro.monitor.engine"),
    ("repro.runtime.native", "NativeEngine", "repro.monitor.engine"),
    ("repro.synthesis.tr", "minterm_expr", "repro.synthesis.dense"),
    ("repro.synthesis.tr", "synthesize_monitor", "repro.synthesis.dense"),
    ("repro.trace.columnar", "check_masks", "repro.trace.shard"),
    ("repro.trace.streaming", "StreamReport", "repro.trace.shard"),
)


@pytest.mark.parametrize("old, name, home", MOVED)
def test_moved_names_resolve_at_their_old_paths(old, name, home):
    value = getattr(importlib.import_module(home), name)
    module = importlib.import_module(old)
    assert getattr(module, name) is value
    assert name in dir(module) and name in module.__all__
    namespace = {}
    exec(f"from {old} import {name}", namespace)
    assert namespace[name] is value


#: Attributes ``perfbench/traced.py`` swaps for span-wrapped ones: each
#: must be its owner's own entry, where the program looks it up.
_SWAPPED = (
    ("repro.cli", ("parse_cesc", "tr_compiled")),
    ("repro.runtime.engines", ("plan_execution",)),
    ("repro.trace.columnar", ("corpus_key", "hashlib", "ingest_vcd",
                              "masks_from_vcd_text")),
    ("repro.trace.shard", ("run_sharded_vcd",)),
    ("repro.trace.vcd_reader", ("VcdReader",)),
)


def test_names_the_benchmark_imports_or_swaps_resolve():
    for module, names in _SWAPPED:
        owner = vars(importlib.import_module(module))
        assert [name for name in names if name not in owner] == [], module
    bench = os.path.join(ROOT, "perfbench")
    for script in ("traced.py", "inputs.py", "workloads.py"):
        with open(os.path.join(bench, script), encoding="utf-8") as stream:
            tree = ast.parse(stream.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert getattr(module, alias.name) is not None, \
                        (script, node.module, alias.name)
