"""Differential suite: every path from a dump to a verdict agrees.

Uncached VCD checking, a cold cache and a warm cached columnar corpus
hand the monitor identical verdicts; streaming over pre-encoded masks
matches streaming over valuations; and with NumPy masked at import
the conversion still gives the frozen per-change sampler's masks
(``vcd_oracle.py``), multi-driver bindings included, at every block
size.  The block-size differential of the conversion itself lives in
``test_vcd_blocks.py``.
"""

import os
import subprocess
import sys

import pytest

from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Loop
from repro.errors import MonitorError
from repro.logic.codec import AlphabetCodec
from repro.protocols.fixtures import ocp_simple_vcd
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime import vector as vector_module
from repro.semantics.generator import TraceGenerator
from repro.synthesis.compose import synthesize_chart
from repro.synthesis.tr import tr_compiled
from repro.trace import columnar as columnar_module
from repro.trace.shard import run_sharded_vcd
from repro.trace.streaming import StreamingChecker
from repro.trace.vcd_reader import SignalBinding, VcdReader
from vcd_oracle import TRICKY_VCD, oracle_masks


@pytest.fixture(params=["numpy", "fallback"])
def columnar_mode(request, monkeypatch):
    """Run each differential with and without NumPy (both layers)."""
    if request.param == "fallback":
        monkeypatch.setattr(columnar_module, "_np", None)
        monkeypatch.setattr(vector_module, "_np", None)
    elif columnar_module._np is None:
        pytest.skip("NumPy not installed; only the fallback mode runs")
    return request.param


def test_no_numpy_subprocess_differential():
    """REPRO_NO_NUMPY=1 end-to-end: import-time fallback, same masks."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "..", "..", "src")
    script = (
        "from repro.protocols.fixtures import ocp_simple_vcd\n"
        "from repro.protocols.ocp import ocp_simple_read_chart\n"
        "from repro.synthesis.tr import tr_compiled\n"
        "from repro.trace import columnar\n"
        "from vcd_oracle import oracle_masks\n"
        "assert columnar._np is None\n"
        "text = ocp_simple_vcd(seed=5)\n"
        "compiled = tr_compiled(ocp_simple_read_chart())\n"
        "codec = compiled.codec\n"
        "expected = oracle_masks(text, codec, clock='clk')\n"
        "masks = columnar.masks_from_vcd_text(text, codec, clock='clk')\n"
        "assert list(masks) == expected, (list(masks), expected)\n"
        "print('ok', len(expected))\n"
    )
    env = dict(os.environ, REPRO_NO_NUMPY="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(src), here]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok")


def test_multi_driver_binding(columnar_mode):
    """Two nets bound to one symbol: it reads true while either is
    high (the replay folds private code bits into symbol bits)."""
    binding = SignalBinding({"req": "busy", "ack": "busy", "data": "data"})
    codec = AlphabetCodec(["busy", "data"])
    for sampling in ({"clock": "clk"}, {}, {"period": 2, "offset": 1},
                     {"clock": "clk", "offset": 2, "until": 5}):
        expected = oracle_masks(TRICKY_VCD, codec, binding=binding,
                                **sampling)
        for chunk_size in (1, 2, 3, 7, 64, 65536):
            got = VcdReader.from_text(TRICKY_VCD, binding=binding,
                                      chunk_size=chunk_size)
            assert list(got.masks(codec, **sampling)) == expected, \
                (sampling, chunk_size)


# ------------------------------------------- three-path verdict identity ----
def _report_tuple(report):
    return (report.name, report.ticks, report.detections,
            report.n_detections, report.stopped_early)


@pytest.mark.parametrize("engine", ["compiled", "vector"])
def test_three_path_verdict_identity(columnar_mode, tmp_path, engine):
    """Uncached, cold cache, warm cache: one verdict."""
    compiled = tr_compiled(ocp_simple_read_chart())
    dumps = []
    for seed in range(3):
        path = tmp_path / f"ocp{seed}.vcd"
        path.write_text(ocp_simple_vcd(seed=seed, repeats=1 + seed))
        dumps.append(str(path))
    cache = tmp_path / "cache"
    streamed = run_sharded_vcd(compiled, dumps, jobs=1, clock="clk",
                               engine=engine)
    cold = run_sharded_vcd(compiled, dumps, jobs=1, clock="clk",
                           engine=engine, cache=str(cache))
    assert len(list(cache.glob("*.rtrc"))) == len(dumps)
    warm = run_sharded_vcd(compiled, dumps, jobs=1, clock="clk",
                           engine=engine, cache=str(cache))
    for a, b, c in zip(streamed, cold, warm):
        assert _report_tuple(a) == _report_tuple(b) == _report_tuple(c)


# ----------------------------------- streaming over pre-encoded masks ----
def _handshake_chart():
    return (
        scesc("hs").instances("M", "S")
        .tick(ev("req")).tick(ev("ack"))
        .arrow("done", cause="req", effect="ack")
        .build()
    )


def test_bank_push_groups_share_one_encode():
    """A shared-alphabet bank encodes once per tick, same verdicts."""
    bank = synthesize_chart(Loop(_handshake_chart(), name="hs_loop"))
    assert len(bank.monitors) > 1
    trace = TraceGenerator(_handshake_chart(), seed=7).satisfying_trace(
        prefix=2, suffix=2
    )
    expected = bank.run(trace).detections
    for engine in ("interpreted", "compiled", "vector"):
        checker = StreamingChecker(bank, engine=engine)
        if engine != "interpreted":
            # The grouping fast path is active and fully grouped.
            assert checker._push_groups is not None
            assert len(checker._push_groups) == 1
        report = checker.feed(trace)
        assert report.detections == expected, engine


def test_feed_masks_matches_feed(columnar_mode):
    chart = _handshake_chart()
    compiled = tr_compiled(chart)
    trace = TraceGenerator(chart, seed=3).satisfying_trace(prefix=1,
                                                           suffix=3)
    masks = [compiled.codec.encode(v) for v in trace]
    baseline = StreamingChecker(compiled, engine="vector").feed(trace)
    encoded = StreamingChecker(compiled, engine="vector").feed_masks(masks)
    assert _report_tuple(encoded) == _report_tuple(baseline)
    # Early exit stays early in mask form too.
    stopping = StreamingChecker(compiled, engine="vector",
                                stop_on_detection=True)
    report = stopping.feed_masks(masks)
    assert report.stopped_early
    assert report.detections == baseline.detections[:1]
    assert report.ticks == baseline.detections[0] + 1


def test_push_masks_guards():
    # Any table backend accepts pre-encoded masks; only the interpreted
    # engine (guard trees step valuations) refuses them.
    compiled = tr_compiled(_handshake_chart())
    checker = StreamingChecker(compiled, engine="compiled")
    checker.push_masks([0])
    assert checker.report().ticks == 1
    interpreted = StreamingChecker(_handshake_chart(), engine="interpreted")
    with pytest.raises(MonitorError, match="push_masks"):
        interpreted.push_masks([0])
