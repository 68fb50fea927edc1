"""Differential suite: the chunk-parallel VCD conversion is byte-exact.

Every case checks the delta parser + replay
(:func:`~repro.trace.columnar.masks_from_vcd_text`) against the frozen
per-change sampler in ``vcd_oracle.py`` — identical mask streams
whatever the chunk seams, in both NumPy and fallback modes — and that
all three checking paths (uncached VCD, chunk-parallel conversion,
warm cached columnar) hand the monitor identical verdicts.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Loop
from repro.errors import MonitorError
from repro.logic.codec import AlphabetCodec
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.fixtures import amba_vcd, ocp_simple_vcd
from repro.protocols.ocp import ocp_simple_read_chart
from repro.runtime import vector as vector_module
from repro.semantics.generator import TraceGenerator
from repro.synthesis.compose import synthesize_chart
from repro.synthesis.tr import tr_compiled
from repro.trace import columnar as columnar_module
from repro.trace.columnar import masks_from_vcd_text
from repro.trace.shard import run_sharded_vcd
from repro.trace.streaming import StreamingChecker
from repro.trace.vcd_reader import SignalBinding
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


def _sequential(text, codec, binding=None, **kwargs):
    return oracle_masks(text, codec, binding=binding, **kwargs)


def _body(text):
    """The change stream: everything after ``$enddefinitions $end``."""
    marker = "$enddefinitions $end"
    return text[text.index(marker) + len(marker):]


def _assert_equivalent(text, codec, binding=None, **kwargs):
    """Parallel output == sequential output at *every* legal seam."""
    expected = _sequential(text, codec, binding=binding, **kwargs)
    single = masks_from_vcd_text(text, codec, binding=binding, **kwargs)
    assert list(single) == expected
    body = _body(text)
    seams = [m.start() + 1 for m in re.finditer(r"\n#", body)]
    # Every two-chunk split...
    for seam in seams:
        masks = masks_from_vcd_text(text, codec, binding=binding,
                                    _force_splits=[0, seam], **kwargs)
        assert list(masks) == expected, f"two-chunk seam at byte {seam}"
    # ... and the maximal split: every timestamp line its own chunk.
    if seams:
        masks = masks_from_vcd_text(text, codec, binding=binding,
                                    _force_splits=[0] + seams, **kwargs)
        assert list(masks) == expected, "one chunk per timestamp line"
    return expected


TRICKY_CODEC = AlphabetCodec(["req", "data", "ack"])


# --------------------------------------------------- seam differentials ----
def test_tricky_dump_clock_sampling(columnar_mode):
    expected = _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, clock="clk")
    assert len(expected) == 4  # rising edges at #1, #3, #5, #7


def test_tricky_dump_event_sampling(columnar_mode):
    expected = _assert_equivalent(TRICKY_VCD, TRICKY_CODEC)
    assert len(expected) == 8  # timestamps 0..7


def test_tricky_dump_periodic_sampling(columnar_mode):
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, period=2)
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, period=3, offset=1)


def test_tricky_dump_windows(columnar_mode):
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, clock="clk", offset=2)
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, clock="clk", until=4)
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, clock="clk",
                       offset=2, until=5)
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, period=2, offset=1, until=5)


def test_seam_inside_directive_falls_back(columnar_mode):
    """A seam cutting a directive body still yields the exact stream."""
    body = _body(TRICKY_VCD)
    bait = body.index("seam bait")
    expected = _sequential(TRICKY_VCD, TRICKY_CODEC, clock="clk")
    masks = masks_from_vcd_text(TRICKY_VCD, TRICKY_CODEC, clock="clk",
                                _force_splits=[0, bait])
    assert list(masks) == expected


def test_seam_mid_token_falls_back(columnar_mode):
    """Even a byte-level mid-token seam cannot corrupt the stream."""
    body = _body(TRICKY_VCD)
    cut = body.index("b1010") + 2  # splits the vector value token
    expected = _sequential(TRICKY_VCD, TRICKY_CODEC, clock="clk")
    masks = masks_from_vcd_text(TRICKY_VCD, TRICKY_CODEC, clock="clk",
                                _force_splits=[0, cut])
    assert list(masks) == expected


def test_multi_driver_binding(columnar_mode):
    """Two nets aliased onto one symbol: true while either is high."""
    binding = SignalBinding({"req": "busy", "ack": "busy", "data": "data"})
    codec = AlphabetCodec(["busy", "data"])
    _assert_equivalent(TRICKY_VCD, codec, binding=binding, clock="clk")
    _assert_equivalent(TRICKY_VCD, codec, binding=binding)


@pytest.mark.parametrize("fixture_text,chart_builder", [
    (amba_vcd(seed=0), ahb_transaction_chart),
    (amba_vcd(seed=2, faulty=True), ahb_transaction_chart),
    (ocp_simple_vcd(seed=1, repeats=2), ocp_simple_read_chart),
])
def test_protocol_fixture_differential(columnar_mode, fixture_text,
                                       chart_builder):
    compiled = tr_compiled(chart_builder())
    _assert_equivalent(fixture_text, compiled.codec, clock="clk")


def test_jobs_path_through_real_pool(columnar_mode):
    """jobs>1 with oversubscribe exercises the worker pool for real."""
    text = ocp_simple_vcd(seed=4, repeats=8)
    compiled = tr_compiled(ocp_simple_read_chart())
    expected = _sequential(text, compiled.codec, clock="clk")
    monkey_min = columnar_module._MIN_PARALLEL_BYTES
    try:
        columnar_module._MIN_PARALLEL_BYTES = 1
        masks = masks_from_vcd_text(text, compiled.codec, clock="clk",
                                    jobs=3, oversubscribe=True)
    finally:
        columnar_module._MIN_PARALLEL_BYTES = monkey_min
    assert list(masks) == expected


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
