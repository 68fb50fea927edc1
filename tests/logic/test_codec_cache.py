"""The codec's trace-encode cache: identity keying, batch bypass, sharing."""

from repro.protocols.ocp import ocp_simple_read_chart
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace
from repro.synthesis.tr import tr_compiled


def test_encode_cache_never_serves_stale_masks_for_mutable_input():
    """Identity keying is only sound for immutable Trace objects; a
    plain list re-encodes every time (regression: a list truncated in
    place used to be checked as if it still had its old contents)."""
    from repro.runtime.compiled import run_many

    chart = ocp_simple_read_chart()
    compiled = tr_compiled(chart)
    generator = TraceGenerator(chart, seed=91)
    trace = generator.satisfying_trace(prefix=1, suffix=1)
    as_list = list(trace.valuations)
    first = run_many(compiled, [as_list])[0]
    assert first.ticks == len(as_list)
    del as_list[len(as_list) // 2:]
    second = run_many(compiled, [as_list])[0]
    assert second.ticks == len(as_list)
    assert len(second.states) == len(as_list) + 1


def test_encode_many_bypasses_cache_for_oversized_batches():
    from repro.logic import codec as codec_module
    from repro.logic.codec import _TRACE_CACHE_LIMIT, AlphabetCodec

    codec_module.clear_trace_cache()
    codec = AlphabetCodec({"a"})
    traces = [Trace.from_sets([{"a"}], alphabet={"a"})
              for _ in range(_TRACE_CACHE_LIMIT)]
    encoded = codec.encode_many(traces)
    assert [list(m) for m in encoded] == [[1]] * len(traces)
    stats = codec_module.trace_cache_info()
    assert stats["misses"] == 0 and stats["entries"] == 0


def test_encode_trace_cache_shared_by_equal_codecs():
    from repro.logic import codec as codec_module
    from repro.logic.codec import AlphabetCodec

    codec_module.clear_trace_cache()
    trace = Trace.from_sets([{"a"}, set(), {"b"}], alphabet={"a", "b"})
    left = AlphabetCodec({"a", "b"})
    right = AlphabetCodec({"b", "a"})
    first = left.encode_trace(trace)
    assert list(first) == [left.encode(v) for v in trace]
    second = right.encode_trace(trace)
    assert second is first  # equal codecs share the cache entry
    stats = codec_module.trace_cache_info()
    assert stats["misses"] == 1 and stats["hits"] == 1
