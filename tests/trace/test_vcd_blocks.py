"""The block-streamed VCD front-end gives one-block results at any size.

``VcdReader`` reads the change stream in blocks of about
``chunk_size`` characters, each cut just before a ``\\n#`` line.  These
tests pin that the block size never shows:

* masks, valuations and change records are identical to the frozen
  per-change sampler in ``vcd_oracle.py`` at every block size, on the
  seam-stress dump, the protocol fixture dumps, seeded
  ``trace_to_vcd`` round trips, header-only and all-``x`` dumps, under
  clock, periodic and event sampling with ``offset``/``until`` windows;
* a seam hazard (a directive body holding a ``\\n#`` line, a
  ``$dumpoff`` section across a block, a vector id on its own ``#``
  line, a truncated dump) gives the masks or the ``TraceError`` of a
  one-block parse;
* the dump text is never held whole;
* with the C block parser and without it (``REPRO_NO_CC``): nothing
  past ``until`` is parsed, initial values before the first
  timestamp, time running backwards under clock sampling, an empty
  change stream, and a value-free gap of 10**30 time units.
"""

import random
import tracemalloc

import pytest

from repro.errors import TraceError
from repro.logic.codec import AlphabetCodec
from repro.protocols.fixtures import amba_vcd, ocp_simple_vcd
from repro.semantics.run import Trace
from repro.trace import trace_to_vcd
from repro.trace import vcd_native
from repro.trace.columnar import masks_from_vcd_text
from repro.trace.vcd_reader import VcdReader
from vcd_oracle import (
    TRICKY_VCD,
    oracle_changes,
    oracle_masks,
    oracle_valuations,
)

CHUNK_SIZES = (1, 2, 3, 7, 64, 4096, 65536)

#: Larger than any dump here: the whole change stream is one block.
ONE_BLOCK = 1 << 30

HEADER = (
    "$timescale 1ns $end\n"
    "$scope module top $end\n"
    "$var wire 1 ! clk $end\n"
    "$var wire 1 \" req $end\n"
    "$var wire 8 # data [7:0] $end\n"
    "$upscope $end\n"
    "$enddefinitions $end\n"
)


def _round_trip(seed: int, clock) -> str:
    rng = random.Random(seed)
    symbols = ("a", "b", "c")
    trace = Trace.from_sets(
        [{s for s in symbols if rng.random() < 0.4}
         for _ in range(rng.randint(20, 60))],
        symbols,
    )
    return trace_to_vcd(trace, clock=clock)


DUMPS = {
    "tricky": TRICKY_VCD,
    "amba": amba_vcd(seed=0),
    "amba-faulty": amba_vcd(seed=2, faulty=True),
    "ocp": ocp_simple_vcd(seed=1, repeats=2),
    **{f"round-trip-{seed}": _round_trip(seed, "clk") for seed in range(3)},
    "round-trip-grid": _round_trip(3, None),
    "header-only": HEADER,
    "empty-trace": trace_to_vcd(Trace.from_sets([], {"a", "b"}),
                                clock="clk"),
    "all-x": HEADER + "#0\n$dumpvars\nx!\nx\"\nbxxxxxxxx #\n$end\n"
                      "#1\nz!\n#2\nx\"\n#3\n",
}

DISCIPLINES = ({"clock": "clk"}, {"period": 1}, {"period": 3}, {})
WINDOWS = ({}, {"offset": 2}, {"until": 5}, {"offset": 3, "until": 9})


def _cases():
    """``(name, text, sampling)`` for every dump x discipline x window."""
    for name, text in DUMPS.items():
        has_clock = "clk" in VcdReader.from_text(text).alphabet()
        for discipline in DISCIPLINES:
            if "clock" in discipline and not has_clock:
                continue
            for window in WINDOWS:
                yield name, text, {**discipline, **window}


def _codec(text, clock=None):
    return AlphabetCodec(VcdReader.from_text(text).alphabet(clock))


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_block_masks_match_the_oracle(chunk_size):
    for name, text, sampling in _cases():
        codec = _codec(text, sampling.get("clock"))
        expected = oracle_masks(text, codec, **sampling)
        got = VcdReader.from_text(text, chunk_size=chunk_size).masks(
            codec, **sampling)
        assert list(got) == expected, (name, sampling)


@pytest.mark.parametrize("chunk_size", (1, 7, 4096))
def test_block_valuations_and_changes_match_the_oracle(chunk_size):
    for name, text, sampling in _cases():
        got = list(VcdReader.from_text(text, chunk_size=chunk_size)
                   .valuations(**sampling))
        assert got == oracle_valuations(text, **sampling), (name, sampling)
    for name, text in DUMPS.items():
        got = list(VcdReader.from_text(text, chunk_size=chunk_size)
                   .changes())
        assert got == list(oracle_changes(text)), name


def test_public_text_conversion_matches_the_oracle():
    for name, text, sampling in _cases():
        codec = _codec(text, sampling.get("clock"))
        assert list(masks_from_vcd_text(text, codec, **sampling)) == \
            oracle_masks(text, codec, **sampling), (name, sampling)


# ------------------------------------------------------- seam hazards ----
VALID_HAZARDS = {
    "directive body holding a \\n# line": HEADER
    + "#0\n1!\n1\"\n#1\n0!\n$comment\n#9 is not a time\n$end\n"
      "#2\n1!\n0\"\n#3\n0!\n",
    "$dumpoff section across a block": HEADER
    + "#0\n1!\n1\"\n#1\n0!\n#2\n$dumpoff\nx!\nx\"\n#3\nx!\n$end\n"
      "#4\n$dumpon\n1!\n1\"\n$end\n#5\n0!\n",
    "vector id on its own # line": HEADER
    + "#0\n1!\nb1010\n#\n#1\n0!\n#2\n1!\nb0\n#\n1\"\n#3\n0!\n",
}

ERROR_HAZARDS = {
    "unterminated directive": HEADER + "#0\n1!\n#1\n0!\n$comment\n#2\n",
    "unterminated $dumpoff": HEADER + "#0\n1!\n#1\n$dumpoff\nx!\n#2\n",
    "vector without its id": HEADER + "#0\n1!\n#1\n0!\nb101\n",
    "bad timestamp": HEADER + "#0\n1!\n#1\n0!\n#zz\n#3\n1!\n",
    "junk token": HEADER + "#0\n1!\n#1\nqq\n#2\n1!\n",
}


def _outcome(text, chunk_size, **sampling):
    codec = _codec(text, sampling.get("clock"))
    try:
        return list(VcdReader.from_text(text, chunk_size=chunk_size)
                    .masks(codec, **sampling))
    except TraceError as error:
        return ("TraceError", str(error))


@pytest.mark.parametrize("name", sorted(VALID_HAZARDS))
def test_seam_hazards_give_one_block_masks(name):
    text = VALID_HAZARDS[name]
    for sampling in ({"clock": "clk"}, {}):
        expected = _outcome(text, ONE_BLOCK, **sampling)
        assert expected == oracle_masks(
            text, _codec(text, sampling.get("clock")), **sampling)
        for chunk_size in CHUNK_SIZES:
            assert _outcome(text, chunk_size, **sampling) == expected, \
                chunk_size


@pytest.mark.parametrize("name", sorted(ERROR_HAZARDS))
def test_seam_hazards_give_one_block_errors(name):
    text = ERROR_HAZARDS[name]
    expected = _outcome(text, ONE_BLOCK, clock="clk")
    assert expected[0] == "TraceError"
    for chunk_size in CHUNK_SIZES:
        assert _outcome(text, chunk_size, clock="clk") == expected, \
            chunk_size


def test_long_construct_is_joined_in_linear_time():
    """A directive body spanning many blocks re-reads at least twice as
    much text per retry, so it costs a handful of parses, not one per
    block."""
    comment = "$comment\n" + "".join(f"#{i} note\n" for i in range(5000))
    text = HEADER + "#0\n1!\n" + comment + "$end\n#1\n0!\n#2\n1!\n"
    calls = []
    reader = VcdReader.from_text(text, chunk_size=64)
    parse_blocks = reader._parsed_blocks

    def counting(parse):
        def counted(block, final):
            calls.append(len(block))
            return parse(block, final)
        return parse_blocks(counted)

    reader._parsed_blocks = counting
    codec = _codec(text, "clk")
    assert list(reader.masks(codec, clock="clk")) == \
        oracle_masks(text, codec, clock="clk")
    assert sum(calls) < 4 * len(text)


# ------------------------------------------------------------- memory ----
#: Transient bytes allowed per character of block: a block's tokens and
#: delta records cost about thirty times its text.
BLOCK_COST = 64


def test_conversion_memory_is_masks_plus_a_few_blocks(tmp_path):
    """A 50k-tick dump converts in 4 bytes a tick plus block-sized
    scratch; the whole text and its token list would be ~15 MB."""
    ticks = 50_000
    chunk_size = 1 << 12
    path = tmp_path / "long.vcd"
    rng = random.Random(7)
    with open(path, "w") as stream:
        stream.write(
            "$timescale 1ns $end\n$scope module top $end\n"
            "$var wire 1 ! clk $end\n$var wire 1 \" a $end\n"
            "$var wire 1 # b $end\n$var wire 1 $ c $end\n"
            "$upscope $end\n$enddefinitions $end\n"
        )
        for tick in range(ticks):
            stream.write(f"#{2 * tick}\n1!\n")
            for code in "\"#$":
                if rng.random() < 0.3:
                    stream.write(f"{rng.randint(0, 1)}{code}\n")
            stream.write(f"#{2 * tick + 1}\n0!\n")
    codec = AlphabetCodec(["a", "b", "c"])
    tracemalloc.start()
    try:
        with VcdReader(path, chunk_size=chunk_size) as reader:
            masks = reader.masks(codec, clock="clk")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(masks) == ticks
    assert peak < 4 * ticks + BLOCK_COST * chunk_size, peak


# ------------------------------------------- both parsers, edge cases ----
@pytest.fixture(params=["c", "python"])
def parser(request, monkeypatch):
    """Run a test with the C block parser and with the Python one."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_NO_CC", "1")
    elif not vcd_native.available():
        pytest.skip("no C compiler: only the Python parser runs")
    return request.param


def test_nothing_past_until_is_parsed(parser):
    """An error after the first timestamp past ``until`` never raises,
    whatever the block size (it used to when it shared a block with
    the window's end)."""
    text = HEADER + "#0\n1!\n1\"\n#1\n0!\n#2\n1!\n#3\n0!\nqq\n#4\n1!\n"
    codec = _codec(text, "clk")
    expected = oracle_masks(text, codec, clock="clk", until=2)
    assert expected == [codec.bit_of["req"]] * 2
    for chunk_size in CHUNK_SIZES + (ONE_BLOCK,):
        assert _outcome(text, chunk_size, clock="clk", until=2) \
            == expected, chunk_size
    assert _outcome(text, ONE_BLOCK, clock="clk")[0] == "TraceError"
    # ``#0`` only continues the instant of the initial values before
    # it, so it is no timestamp past ``until=-1``: the error after it
    # still raises, as in the oracle.
    text = HEADER + "1\"\n#0\n1!\nqq\n#1\n0!\n"
    with pytest.raises(TraceError, match="qq"):
        oracle_masks(text, codec, clock="clk", until=-1)
    for chunk_size in CHUNK_SIZES + (ONE_BLOCK,):
        assert _outcome(text, chunk_size, clock="clk", until=-1)[0] \
            == "TraceError", chunk_size


def test_initial_values_open_their_instant_without_a_timestamp(parser):
    """Values dumped before the first timestamp open their instant with
    no grid fill and no window check, as in the oracle (a negative
    offset used to lose the grid points before time 0)."""
    text = HEADER + "$dumpvars\n1\"\n$end\n#0\n#3\n0\"\n"
    codec = _codec(text)
    assert len(oracle_masks(text, codec, period=1, offset=-3)) == 7
    for sampling in ({"period": 1, "offset": -3}, {"until": -1},
                     {"period": 2, "offset": -1, "until": 2}):
        expected = oracle_masks(text, codec, **sampling)
        for chunk_size in CHUNK_SIZES + (ONE_BLOCK,):
            assert _outcome(text, chunk_size, **sampling) == expected, \
                (sampling, chunk_size)


def test_time_running_backwards_keeps_instants_apart(parser):
    """Under clock sampling a falling edge between two instants at one
    time still parts them: two rising edges, two ticks (the replay
    used to merge them when the quiet edge was elided)."""
    text = HEADER + "#29\n1!\n1\"\n#31\n0!\n#29\n1!\n#32\n0!\n#31\n1!\n"
    codec = _codec(text, "clk")
    expected = oracle_masks(text, codec, clock="clk")
    assert len(expected) == 3
    for chunk_size in CHUNK_SIZES + (ONE_BLOCK,):
        assert _outcome(text, chunk_size, clock="clk") == expected, \
            chunk_size


def test_empty_change_stream_reads_zero_ticks(parser):
    """A dump that ends right at ``$enddefinitions $end`` (it used to
    spin forever looking for a block)."""
    text = HEADER.rstrip("\n")
    for sampling in ({"clock": "clk"}, {"period": 1}, {}):
        assert _outcome(text, 7, **sampling) == []
    assert list(VcdReader.from_text(text).changes()) == []


def test_value_free_gap_is_skipped_in_constant_time(parser):
    """Period sampling skips a value-free gap of 10**30 time units
    arithmetically, keeping the grid's phase."""
    start = 10 ** 30
    text = HEADER + f"#0\n#{start}\n1\"\n#{start + 4}\n0\"\n"
    codec = _codec(text)
    # The grid is 1, 4, 7, ...: its points in the dump are 10**30
    # (= 1 mod 3) and 10**30 + 3, both while req is high.
    assert _outcome(text, 7, period=3, offset=1) == [codec.bit_of["req"]] * 2
