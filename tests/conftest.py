"""Shared differential-test harness.

Every codegen backend — the generated standalone Python checkers and
the native C table-stepper — is pinned to the same contract: verdict
and detection-tick identity against the interpreted reference on the
AMBA/OCP/random fixtures.  The fixture charts, the mixed trace
generator and the identity assertion live here once, exposed through
the ``diff_harness`` fixture, so the Python-codegen suite
(``tests/codegen``) and the native-backend suite (``tests/runtime``)
cannot drift apart in what they prove.

``--native-sanitize`` builds every native object the session loads
(the monitor stepper and the VCD block parser) with AddressSanitizer
and UBSan, into a private shared-object cache.  Run it with gcc's
runtimes preloaded::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
                $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src \\
    python -m pytest --native-sanitize tests/trace
"""

import os
import random
import shutil
import sys
import tempfile

import pytest

from repro.cesc.builder import ev, scesc
from repro.cesc.charts import ScescChart
from repro.monitor.engine import run_monitor
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace


def _random_chart(seed: int):
    rng = random.Random(seed)
    n_ticks = rng.randint(2, 4)
    builder = scesc(f"diff_fuzz_{seed}").instances("A", "B")
    events_by_tick = []
    for tick in range(n_ticks):
        names = [f"e{tick}_{i}" for i in range(rng.randint(1, 2))]
        events_by_tick.append(names)
        builder = builder.tick(*[ev(name) for name in names])
    for arrow in range(rng.randint(0, 2)):
        cause_tick = rng.randrange(n_ticks - 1)
        effect_tick = rng.randrange(cause_tick + 1, n_ticks)
        builder = builder.arrow(
            f"arr{arrow}",
            cause=rng.choice(events_by_tick[cause_tick]),
            effect=rng.choice(events_by_tick[effect_tick]),
        )
    return builder.build()


class DiffHarness:
    """The reference side of every codegen differential suite."""

    CHARTS = {
        "ocp_simple": ocp_simple_read_chart,
        "ocp_burst": ocp_burst_read_chart,
        "amba_ahb": ahb_transaction_chart,
        "random_a": lambda: _random_chart(11),
        "random_b": lambda: _random_chart(57),
        "random_c": lambda: _random_chart(301),
    }

    @staticmethod
    def chart(which):
        return DiffHarness.CHARTS[which]()

    #: A seeded random chart, as the differential suites draw them.
    random_chart = staticmethod(_random_chart)

    @staticmethod
    def traces(chart, count, seed, include_empty=True):
        """The standard mix: satisfying, random noise, violating."""
        generator = TraceGenerator(ScescChart(chart), seed=seed)
        traces = []
        for index in range(count):
            kind = index % 3
            if kind == 0:
                traces.append(generator.satisfying_trace(
                    prefix=index % 3, suffix=(index // 3) % 3
                ))
            elif kind == 1:
                traces.append(generator.random_trace(4 + index % 20))
            else:
                traces.append(generator.violating_window())
        if include_empty:
            traces.append(Trace([], chart.alphabet()))
        return traces

    @staticmethod
    def stream_engines():
        """The table backends a detector stream steps on here:
        ``compiled``, and ``native`` when a C compiler is available."""
        from repro.runtime.native import unavailable_reason

        if unavailable_reason() is not None:
            return ("compiled",)
        return ("compiled", "native")

    @staticmethod
    def planned_batch(compiled, traces, **kwargs):
        """The planned batch runner campaigns and ``check`` run: native
        with a C compiler, else the compiled lock-step loop."""
        from repro.runtime.engines import Workload, plan_execution

        plan = plan_execution(compiled, Workload.from_traces(traces))
        return plan.batch_runner()(compiled, traces, **kwargs)

    @staticmethod
    def reference(monitor, traces):
        """Interpreted-engine results: the semantics every backend
        must reproduce exactly."""
        return [run_monitor(monitor, trace) for trace in traces]

    @staticmethod
    def assert_identity(reference, results, states=True):
        """Verdict + detection-tick (+ state-history) identity."""
        assert len(reference) == len(results)
        for ref, got in zip(reference, results):
            assert got.detections == ref.detections
            assert got.ticks == ref.ticks
            assert got.accepted == ref.accepted
            if states:
                assert got.states == ref.states


@pytest.fixture(scope="session")
def diff_harness():
    return DiffHarness


@pytest.fixture(params=["numpy", "fallback"])
def numpy_mode(request, monkeypatch):
    """NumPy loaded in this process (the module, where it is installed)
    or unimportable (``None``).  The package has no NumPy path, so a
    case run in both modes must answer alike; a case that hands masks
    to a runner may hand it NumPy arrays in the first."""
    if request.param == "numpy":
        return pytest.importorskip("numpy")
    monkeypatch.setitem(sys.modules, "numpy", None)
    return None


# -- sanitizer builds ---------------------------------------------------
SANITIZE_FLAGS = ("-fsanitize=address,undefined",
                  "-fno-sanitize-recover=all")


def pytest_addoption(parser):
    parser.addoption(
        "--native-sanitize", action="store_true", default=False,
        help="build native objects with ASan+UBSan into a private "
             "shared-object cache (preload gcc's libasan and libubsan "
             "and set ASAN_OPTIONS=detect_leaks=0)")


def pytest_configure(config):
    if not config.getoption("--native-sanitize"):
        return
    from repro.runtime import native

    # The flags are part of the cache key, so a sanitizer object is
    # never loaded by a plain run, nor a plain one here.
    native._CC_FLAGS = native._CC_FLAGS + SANITIZE_FLAGS
    config._native_sanitize_cache = tempfile.mkdtemp(
        prefix="repro-native-sanitize-")
    os.environ["REPRO_NATIVE_CACHE"] = config._native_sanitize_cache


def pytest_unconfigure(config):
    cache = getattr(config, "_native_sanitize_cache", None)
    if cache is not None:
        shutil.rmtree(cache, ignore_errors=True)
