"""Optimization-pipeline benchmarks: table sizes and verdict identity.

Records, per fixture chart, the dense-baseline vs optimized table
shape (``states``/``cells``/container bytes/pickled bytes), and gates
that the optimized monitor reports bit-identical verdicts and
detection ticks across all five execution paths.

Results land in ``BENCH_optimize.json`` (CI publishes the file).
"""

import json
import pathlib
import pickle
import sys

from repro import StreamingChecker, TraceGenerator, tr, tr_compiled
from repro.codegen.python_gen import monitor_to_python
from repro.monitor.engine import run_monitor
from repro.optimize import optimize_monitor
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.runtime.compiled import run_compiled
from repro.trace import run_sharded

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_optimize.json"

_CHARTS = {
    "ocp_simple_read": ocp_simple_read_chart,
    "ocp_burst_read": ocp_burst_read_chart,
    "ahb_transaction": ahb_transaction_chart,
}


def _record(results):
    existing = {}
    if _RESULTS_PATH.exists():
        try:
            existing = json.loads(_RESULTS_PATH.read_text())
        except (ValueError, OSError):
            existing = {}
    existing.update(results)
    _RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n"
    )


def _table_bytes(compiled) -> int:
    """Container-level size of the dispatch table (rows + spine):
    ``8 bytes x 2^|Sigma|`` per row regardless of content."""
    table = compiled._table
    return sys.getsizeof(table) + sum(sys.getsizeof(row) for row in table)


def _pickle_bytes(compiled) -> int:
    """Serialized monitor size — what the sharded pipeline ships to
    workers and an on-disk compilation cache stores."""
    return len(pickle.dumps(compiled.without_source()))


def _corpus(chart, count=24):
    generator = TraceGenerator(chart, seed=23)
    traces = []
    for index in range(count):
        if index % 2:
            traces.append(generator.random_trace(8 + index % 9))
        else:
            traces.append(
                generator.satisfying_trace(prefix=index % 3, suffix=1)
            )
    return traces


def test_optimized_table_sizes_with_identical_verdicts(report):
    results = {}
    for name, build in _CHARTS.items():
        chart = build()
        monitor = tr(chart)
        dense = tr_compiled(chart)
        optimized = optimize_monitor(monitor)
        compiled = optimized.compiled

        namespace = {}
        exec(monitor_to_python(optimized.monitor, class_name="Generated"),
             namespace)
        generated_class = namespace["Generated"]

        corpus = _corpus(chart)
        sharded = run_sharded(compiled, corpus, jobs=2, oversubscribe=True)
        for trace, shard_result in zip(corpus, sharded):
            reference = run_monitor(monitor, trace).detections
            assert run_compiled(dense, trace).detections == reference
            assert run_compiled(compiled, trace).detections == reference
            assert StreamingChecker(
                compiled, stop_on_detection=False
            ).feed(trace).detections == reference
            assert list(shard_result.detections) == reference
            assert generated_class().feed(
                [valuation.true for valuation in trace]
            ).detections == reference

        reduction = dense.table_cells() / compiled.table_cells()
        dense_bytes = _table_bytes(dense)
        optimized_bytes = _table_bytes(compiled)
        dense_pickle = _pickle_bytes(dense)
        optimized_pickle = _pickle_bytes(compiled)
        report(
            f"{name}: states {dense.n_states}->{compiled.n_states}, "
            f"cells {dense.table_cells()}->{compiled.table_cells()} "
            f"({reduction:.1f}x), table bytes "
            f"{dense_bytes}->{optimized_bytes}, pickled bytes "
            f"{dense_pickle}->{optimized_pickle}"
        )
        results[name] = {
            "baseline_states": dense.n_states,
            "optimized_states": compiled.n_states,
            "baseline_cells": dense.table_cells(),
            "optimized_cells": compiled.table_cells(),
            "cell_reduction": round(reduction, 2),
            "baseline_table_bytes": dense_bytes,
            "optimized_table_bytes": optimized_bytes,
            "baseline_pickle_bytes": dense_pickle,
            "optimized_pickle_bytes": optimized_pickle,
            "five_path_verdicts_identical": True,
        }
    _record({"tables": results})

