"""Tests for the ``.rtrc`` columnar trace store (format + round-trips)."""

import json
import os
import struct
import subprocess
import sys
import zlib

from array import array

import pytest

from repro.errors import TraceError
from repro.logic.codec import AlphabetCodec
from repro.semantics.run import Trace
from repro.trace.columnar import (
    RTRC_VERSION,
    ColumnarTraceSet,
    codec_fingerprint,
)


def _sample_set(meta=None):
    return ColumnarTraceSet.from_mask_arrays(
        [[0, 1, 3, 2], [5], [], [7, 0]],
        symbols=("a", "b", "c"),
        meta=meta or {"clock": "clk"},
    )


# ------------------------------------------------------------ observers ----
def test_shape_and_views(numpy_mode):
    columns = _sample_set()
    assert columns.n_traces == 4
    assert len(columns) == 4
    assert columns.total_ticks == 7
    assert columns.lengths == (4, 1, 0, 2)
    assert list(columns.masks(0)) == [0, 1, 3, 2]
    assert list(columns.masks(2)) == []
    assert list(columns.masks(3)) == [7, 0]
    assert [list(m) for m in columns.mask_arrays()] == \
        [[0, 1, 3, 2], [5], [], [7, 0]]
    assert "4 traces" in repr(columns)


def test_fingerprint_tracks_symbol_ordering():
    left = _sample_set()
    assert left.fingerprint == codec_fingerprint(("a", "b", "c"))
    assert left.fingerprint == codec_fingerprint(AlphabetCodec("abc"))
    assert left.fingerprint != codec_fingerprint(("a", "b", "d"))
    # Iterables are canonicalised the way AlphabetCodec sorts them.
    assert codec_fingerprint(["b", "a", "c"]) == \
        codec_fingerprint(AlphabetCodec(["c", "b", "a"]))


def test_payload_length_must_match_lengths(numpy_mode):
    with pytest.raises(TraceError, match="lengths"):
        ColumnarTraceSet(("a",), (3,), [1, 2])
    with pytest.raises(TraceError, match="negative"):
        ColumnarTraceSet(("a",), (-1,), [])


def test_trace_decode_round_trip(numpy_mode):
    trace = Trace.from_sets(
        [{"a"}, set(), {"a", "c"}, {"b", "c"}],
        alphabet=("a", "b", "c"),
    )
    columns = ColumnarTraceSet.from_traces([trace, trace])
    decoded = columns.trace(1)
    assert [sorted(v.true) for v in decoded] == [sorted(v.true) for v in trace]
    assert set(decoded.alphabet) == set(trace.alphabet)


def test_from_traces_matches_codec_encoding(numpy_mode):
    trace = Trace.from_sets([{"x"}, {"x", "y"}, set()], alphabet=("x", "y"))
    codec = AlphabetCodec(trace.alphabet)
    columns = ColumnarTraceSet.from_traces([trace], alphabet=trace.alphabet)
    assert list(columns.masks(0)) == [codec.encode(v) for v in trace]


# --------------------------------------------------------- serialisation ----
def test_bytes_round_trip(numpy_mode):
    columns = _sample_set(meta={"clock": "clk", "note": "round-trip"})
    blob = columns.to_bytes()
    loaded = ColumnarTraceSet.from_bytes(blob)
    assert loaded.symbols == columns.symbols
    assert loaded.lengths == columns.lengths
    assert loaded.meta == columns.meta
    assert loaded.fingerprint == columns.fingerprint
    assert [list(m) for m in loaded.mask_arrays()] == \
        [list(m) for m in columns.mask_arrays()]


def test_payload_is_aligned():
    blob = _sample_set().to_bytes()
    header_len = struct.unpack("<I", blob[8:12])[0]
    payload_offset = 12 + header_len
    payload_offset += (-payload_offset) % 64
    assert payload_offset % 64 == 0
    assert len(blob) == payload_offset + 4 * 7


def test_save_load_round_trip(numpy_mode, tmp_path):
    columns = _sample_set()
    path = tmp_path / "corpus.rtrc"
    assert columns.save(path) == str(path)
    # Atomic write leaves no temp droppings behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.rtrc"]
    loaded = ColumnarTraceSet.load(path)
    assert loaded.lengths == columns.lengths
    assert [list(m) for m in loaded.mask_arrays()] == \
        [list(m) for m in columns.mask_arrays()]


def test_empty_set_round_trip(numpy_mode, tmp_path):
    columns = ColumnarTraceSet.from_mask_arrays([], symbols=("a",))
    path = tmp_path / "empty.rtrc"
    columns.save(path)
    loaded = ColumnarTraceSet.load(path)
    assert loaded.n_traces == 0
    assert loaded.total_ticks == 0


# ------------------------------------------------------------- rejection ----
def test_rejects_bad_magic(numpy_mode):
    blob = bytearray(_sample_set().to_bytes())
    blob[:4] = b"NOPE"
    with pytest.raises(TraceError, match="not a columnar"):
        ColumnarTraceSet.from_bytes(bytes(blob))
    with pytest.raises(TraceError, match="not a columnar"):
        ColumnarTraceSet.from_bytes(b"RT")  # shorter than the prefix


def test_rejects_version_mismatch(numpy_mode):
    blob = bytearray(_sample_set().to_bytes())
    blob[4:8] = struct.pack("<I", RTRC_VERSION + 1)
    with pytest.raises(TraceError, match="version"):
        ColumnarTraceSet.from_bytes(bytes(blob))


def test_rejects_truncation(numpy_mode):
    blob = _sample_set().to_bytes()
    with pytest.raises(TraceError, match="truncated|payload"):
        ColumnarTraceSet.from_bytes(blob[:10])
    with pytest.raises(TraceError, match="payload"):
        ColumnarTraceSet.from_bytes(blob[:-3])
    with pytest.raises(TraceError, match="payload"):
        ColumnarTraceSet.from_bytes(blob + b"\x00\x00\x00\x00")


def test_rejects_corrupt_header_and_payload(numpy_mode):
    blob = bytearray(_sample_set().to_bytes())
    corrupt = bytearray(blob)
    corrupt[13] ^= 0xFF  # inside the JSON header
    with pytest.raises(TraceError, match="header"):
        ColumnarTraceSet.from_bytes(bytes(corrupt))
    corrupt = bytearray(blob)
    corrupt[-4] ^= 0x01  # inside the mask payload: the last mask 0 -> 1
    with pytest.raises(TraceError, match="crc32"):
        ColumnarTraceSet.from_bytes(bytes(corrupt))
    # ... but an explicit verify=False load trusts the bytes (as long
    # as every mask stays inside the alphabet).
    loaded = ColumnarTraceSet.from_bytes(bytes(corrupt), verify=False)
    assert loaded.n_traces == 4
    assert list(loaded.masks(3)) == [7, 1]


def _header_image(header, values):
    """A ``.rtrc`` image of ``header`` with a valid crc over int32
    ``values``."""
    payload = struct.pack(f"<{len(values)}i", *values)
    blob = json.dumps(dict(header, payload_crc32=zlib.crc32(payload)),
                      sort_keys=True).encode("utf-8")
    prefix = b"RTRC" + struct.pack("<II", RTRC_VERSION, len(blob))
    pad = b"\x00" * ((-(len(prefix) + len(blob))) % 64)
    return prefix + blob + pad + payload


def _rtrc_bytes(symbols, lengths, values):
    """A well-formed ``.rtrc`` image (valid crc) of arbitrary masks."""
    return _header_image({
        "symbols": list(symbols),
        "fingerprint": codec_fingerprint(symbols),
        "lengths": list(lengths),
        "meta": {},
    }, values)


def test_masks_outside_the_alphabet_are_refused(numpy_mode, tmp_path):
    """A set is built or loaded only with every mask in
    ``[0, 2^|symbols|)``: from mask arrays, and from well-formed
    ``.rtrc`` bytes whose crc verifies."""
    symbols = ("a", "b", "c")
    for bad in ([[1 << 28, 5]], [[-3, 5]], [[0, 1], [8]]):
        with pytest.raises(TraceError, match="allows 0..7"):
            ColumnarTraceSet.from_mask_arrays(bad, symbols=symbols)
    blob = _rtrc_bytes(symbols, [2, 1], [0, 7, -3])
    path = tmp_path / "out-of-range.rtrc"
    path.write_bytes(blob)
    with pytest.raises(TraceError, match="span -3..7"):
        ColumnarTraceSet.from_bytes(blob)
    with pytest.raises(TraceError, match="span -3..7"):
        ColumnarTraceSet.load(path)
    in_range = _rtrc_bytes(symbols, [2, 1], [0, 7, 3])
    assert list(ColumnarTraceSet.from_bytes(in_range).masks(1)) == [3]


def test_load_rejects_corrupt_file(numpy_mode, tmp_path):
    path = tmp_path / "corrupt.rtrc"
    blob = bytearray(_sample_set().to_bytes())
    blob[-2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceError, match="crc32"):
        ColumnarTraceSet.load(path)


def test_load_structural_damage_raises_trace_error(numpy_mode,
                                                   tmp_path):
    """Every non-crc failure mode of a damaged file is a TraceError at
    ``load`` — magic, version, header JSON, and the payload-size
    promise."""
    blob = bytearray(_sample_set().to_bytes())
    cases = []
    bad_magic = bytearray(blob)
    bad_magic[:4] = b"NOPE"
    cases.append((bad_magic, "not a columnar"))
    bad_version = bytearray(blob)
    bad_version[4:8] = struct.pack("<I", RTRC_VERSION + 9)
    cases.append((bad_version, "version"))
    bad_header = bytearray(blob)
    bad_header[13] ^= 0xFF
    cases.append((bad_header, "header"))
    truncated = bytearray(blob[:-3])
    cases.append((truncated, "payload"))
    for index, (damaged, match) in enumerate(cases):
        path = tmp_path / f"damaged{index}.rtrc"
        path.write_bytes(bytes(damaged))
        with pytest.raises(TraceError, match=match):
            ColumnarTraceSet.load(path)


def test_set_lives_in_one_int32_array(numpy_mode, tmp_path):
    """Built, decoded or loaded, a set's masks are ``array('i')``."""
    columns = _sample_set()
    path = tmp_path / "corpus.rtrc"
    columns.save(path)
    for candidate in (columns, ColumnarTraceSet.from_bytes(
            columns.to_bytes()), ColumnarTraceSet.load(path)):
        lanes = candidate.mask_arrays()
        assert all(type(lane) is array and lane.typecode == "i"
                   for lane in lanes)
        assert [list(lane) for lane in lanes] == \
            [[0, 1, 3, 2], [5], [], [7, 0]]


def test_masks_beyond_int32_are_refused():
    """A mask no ``int32`` holds is outside every alphabet: a
    TraceError naming the span, not a bare OverflowError."""
    for bad in ([[0, 1 << 40]], [[-(1 << 35)], [1]]):
        with pytest.raises(TraceError, match="span .* allows 0..7"):
            ColumnarTraceSet.from_mask_arrays(bad, symbols=("a", "b", "c"))


@pytest.mark.parametrize("field, value", [
    ("symbols", "abc"), ("symbols", [1, 2]), ("symbols", None),
    ("symbols", ["b", "a"]), ("symbols", ["a", "a"]),
    ("lengths", "3"), ("lengths", [1.5, 1.5]), ("lengths", [True, 2]),
    ("lengths", [-1, 4]), ("meta", [1]), ("meta", "clock"),
])
def test_header_of_the_wrong_shape_is_refused(field, value):
    """Header fields of the wrong JSON type are a corrupt header, even
    behind a valid crc: symbols a list of strings, lengths a list of
    non-negative integers, meta an object.  Symbols out of a codec's
    order (sorted, distinct — the codec fingerprint ignores order, so a
    permuted file would have its bits read in the codec's order) are
    refused by the set itself, as every constructor refuses them."""
    header = {"symbols": ["a", "b"], "lengths": [3], "meta": {}}
    header[field] = value
    reason = ("not a codec's order" if value in (["b", "a"], ["a", "a"])
              else "corrupt columnar trace header")
    with pytest.raises(TraceError, match=reason):
        ColumnarTraceSet.from_bytes(_header_image(header, [0, 1, 2]))


@pytest.mark.parametrize("symbols", [("b", "a"), ("a", "a"),
                                     ("a", "c", "b")])
def test_every_constructor_refuses_symbols_out_of_codec_order(symbols):
    """Built in Python, a set in another order would decode mask 1 as
    the codec's first symbol and save a file ``load`` refuses."""
    lanes = [[0, 1]]
    with pytest.raises(TraceError, match="not a codec's order"):
        ColumnarTraceSet.from_mask_arrays(lanes, symbols=symbols)
    with pytest.raises(TraceError, match="not a codec's order"):
        ColumnarTraceSet(symbols, [2], array("i", [0, 1]))


def test_a_set_wider_than_any_codec_loads_but_has_no_codec():
    """A 25-symbol set loads (its masks are range-checked), but
    ``codec()`` and ``trace()`` answer a TraceError, not the codec's
    ExprError."""
    symbols = [f"s{index:02d}" for index in range(25)]
    wide = ColumnarTraceSet.from_bytes(ColumnarTraceSet.from_mask_arrays(
        [[0, 1 << 24]], symbols=symbols).to_bytes())
    assert list(wide.masks(0)) == [0, 1 << 24]
    for call in (wide.codec, lambda: wide.trace(0)):
        with pytest.raises(TraceError, match="25 symbols has no codec"):
            call()


def test_range_check_is_one_c_loop_with_a_compiler(monkeypatch):
    """With a compiler the range check runs in the VCD unit's C loop;
    under ``REPRO_NO_CC`` it is Python's min and max, with the same
    answer."""
    from repro.trace import vcd_native

    masks = array("i", [5, 0, 7, 3, 7, 1])
    monkeypatch.setenv("REPRO_NO_CC", "1")
    assert vcd_native.mask_span(masks) == (0, 7)
    monkeypatch.delenv("REPRO_NO_CC")
    if not vcd_native.available():
        pytest.skip("no C compiler: only the Python range check runs")
    assert vcd_native.mask_span(masks) == (0, 7)
    assert vcd_native.mask_span(array("i", [-3])) == (-3, -3)
    assert vcd_native.mask_span(array("i", [1 << 30, -(1 << 31)])) == \
        (-(1 << 31), 1 << 30)


# ------------------------------------------------------------ no NumPy ----
_NO_NUMPY = (
    "import sys, repro\n"
    "import repro.cli\n"
    "from repro.trace import columnar\n"
    "columns = columnar.ColumnarTraceSet.from_mask_arrays([[1, 2]], 'ab')\n"
    "loaded = columnar.ColumnarTraceSet.from_bytes(columns.to_bytes())\n"
    "print(int('numpy' in sys.modules), type(loaded.masks(0)).__module__,\n"
    "      list(loaded.masks(0)))\n"
)


@pytest.mark.parametrize("no_numpy", [False, True])
def test_import_repro_loads_no_numpy(no_numpy, tmp_path):
    """``import repro``, ``import repro.cli`` and a columnar build and
    load import no NumPy, and work the same where NumPy cannot be
    imported at all (a ``numpy`` package that raises ImportError
    first on the path)."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "..", "..", "src")
    path = [os.path.abspath(src)]
    if no_numpy:
        shim = tmp_path / "numpy"
        shim.mkdir()
        (shim / "__init__.py").write_text(
            "raise ImportError('NumPy is masked for this test')\n")
        path.insert(0, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "array", "[1,", "2]"]
