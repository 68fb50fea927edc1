"""The C block parser: the traffic it takes and how it is built.

The differential suites (``test_vcd_blocks.py``, ``test_vcd_fuzz.py``)
pin that the C parser and the Python parser give one outcome.  These
tests pin what the speed rests on:

* dumps ``trace_to_vcd`` writes never reach the Python parser;
* one parser object serves every dump: it is built once, then found
  in the shared-object cache;
* a block outside the C grammar falls back alone, and the C parser
  takes the next block from the Python side's state.
"""

import random

import pytest

import repro.runtime.native as native
import repro.trace.vcd_reader as vcd_reader_module
from repro.logic.codec import AlphabetCodec
from repro.protocols.fixtures import amba_vcd, ocp_simple_vcd
from repro.semantics.run import Trace
from repro.trace import trace_to_vcd, vcd_native
from repro.trace.columnar import masks_from_vcd
from repro.trace.vcd_reader import VcdReader
from vcd_oracle import oracle_masks, oracle_valuations

pytestmark = pytest.mark.skipif(
    not vcd_native.available(),
    reason=f"C parser unavailable: {native.unavailable_reason()}",
)


@pytest.fixture
def python_blocks(monkeypatch):
    """Count the blocks the Python parser takes."""
    calls = []
    parse_chunk = vcd_reader_module._parse_chunk

    def counted(text, *args, **kwargs):
        calls.append(text)
        return parse_chunk(text, *args, **kwargs)

    monkeypatch.setattr(vcd_reader_module, "_parse_chunk", counted)
    return calls


def _random_dump(seed, clock="clk", ticks=3000):
    rng = random.Random(seed)
    symbols = [f"sig{i}" for i in range(rng.randint(1, 12))]
    trace = Trace.from_sets(
        [{s for s in symbols if rng.random() < 0.3} for _ in range(ticks)],
        symbols)
    return trace_to_vcd(trace, clock=clock), symbols


def test_trace_to_vcd_dumps_never_reach_the_python_parser(python_blocks,
                                                          tmp_path):
    """The dumps the benchmark writes: every block is the C parser's."""
    for seed in range(4):
        text, symbols = _random_dump(seed)
        codec = AlphabetCodec(symbols)
        expected = oracle_masks(text, codec, clock="clk")
        for chunk_size in (64, 4096, 1 << 16):
            assert list(VcdReader.from_text(text, chunk_size=chunk_size)
                        .masks(codec, clock="clk")) == expected
        path = tmp_path / f"dump{seed}.vcd"
        path.write_text(text)
        assert list(masks_from_vcd(path, codec, clock="clk")) == expected
        assert list(VcdReader.from_text(text).valuations(clock="clk")) \
            == oracle_valuations(text, clock="clk")
    text, symbols = _random_dump(9, clock=None)
    codec = AlphabetCodec(symbols)
    assert list(VcdReader.from_text(text).masks(codec, period=1)) == \
        oracle_masks(text, codec, period=1)
    for text in (amba_vcd(seed=0), ocp_simple_vcd(seed=1, repeats=3)):
        codec = AlphabetCodec(VcdReader.from_text(text).alphabet("clk"))
        assert list(VcdReader.from_text(text).masks(codec, clock="clk")) \
            == oracle_masks(text, codec, clock="clk")
    assert python_blocks == []


def test_parser_is_built_once_then_found_in_the_cache(tmp_path,
                                                      monkeypatch):
    """Two dumps with different headers share one parser object: one
    compile, then a disk-cache hit for a process that loads it anew."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr(vcd_native, "_LIBRARY", None)
    compiles = []
    compile_so = native._compile_so

    def counted(*args):
        compiles.append(args)
        return compile_so(*args)

    monkeypatch.setattr(native, "_compile_so", counted)
    first, first_symbols = _random_dump(1, ticks=50)
    second, second_symbols = _random_dump(2, ticks=50)
    assert first.split("$enddefinitions")[0] != \
        second.split("$enddefinitions")[0]
    for text, symbols in ((first, first_symbols), (second, second_symbols)):
        codec = AlphabetCodec(symbols)
        assert list(VcdReader.from_text(text).masks(codec, clock="clk")) \
            == oracle_masks(text, codec, clock="clk")
    assert len(compiles) == 1
    path = vcd_native._LIBRARY.path
    assert path.startswith(str(tmp_path))
    # A fresh process finds the object on disk.
    monkeypatch.setattr(vcd_native, "_LIBRARY", None)
    codec = AlphabetCodec(first_symbols)
    assert list(VcdReader.from_text(first).masks(codec, clock="clk")) \
        == oracle_masks(first, codec, clock="clk")
    assert len(compiles) == 1
    assert vcd_native._LIBRARY.path == path


def test_one_odd_block_falls_back_alone(python_blocks):
    """A real value lands in one block: that block goes to the Python
    parser, the blocks before and after stay in C, and the state
    crosses both ways."""
    text, symbols = _random_dump(5, ticks=2000)
    cut = text.index("\n#2001\n") + 1
    text = text[:cut] + "#2001\nr2.5 \"\n" + text[cut:]
    codec = AlphabetCodec(symbols)
    expected = oracle_masks(text, codec, clock="clk")
    got = VcdReader.from_text(text, chunk_size=4096).masks(codec,
                                                         clock="clk")
    assert list(got) == expected
    assert len(python_blocks) == 1
    assert "r2.5" in python_blocks[0]


def test_period_fill_larger_than_the_buffer(python_blocks):
    """A held value across a long gap fills more ticks than one block's
    buffer holds: the block runs again with a larger one."""
    text = ("$var wire 1 ! a $end\n$enddefinitions $end\n"
            "#0\n1!\n#50000\n0!\n#50001\n1!\n")
    codec = AlphabetCodec(["a"])
    got = VcdReader.from_text(text).masks(codec, period=1)
    assert list(got) == oracle_masks(text, codec, period=1)
    assert len(got) == 50002
    assert python_blocks == []
