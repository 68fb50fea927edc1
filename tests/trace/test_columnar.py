"""Tests for the ``.rtrc`` columnar trace store (format + round-trips)."""

import importlib.util
import json
import os
import struct
import subprocess
import sys
import zlib

import pytest

from repro.errors import TraceError
from repro.logic.codec import AlphabetCodec
from repro.semantics.run import Trace
from repro.trace import columnar as columnar_module
from repro.trace.columnar import (
    RTRC_VERSION,
    ColumnarTraceSet,
    codec_fingerprint,
)


@pytest.fixture(params=["numpy", "fallback"])
def columnar_mode(request, monkeypatch):
    """Run each case with and without the NumPy flat buffer."""
    if request.param == "fallback":
        monkeypatch.setattr(columnar_module, "_np", None)
    elif columnar_module._np is None:
        pytest.skip("NumPy not installed; only the fallback mode runs")
    return request.param


def _sample_set(meta=None):
    return ColumnarTraceSet.from_mask_arrays(
        [[0, 1, 3, 2], [5], [], [7, 0]],
        symbols=("a", "b", "c"),
        meta=meta or {"clock": "clk"},
    )


# ------------------------------------------------------------ observers ----
def test_shape_and_views(columnar_mode):
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


def test_payload_length_must_match_lengths(columnar_mode):
    with pytest.raises(TraceError, match="lengths"):
        ColumnarTraceSet(("a",), (3,), [1, 2])
    with pytest.raises(TraceError, match="negative"):
        ColumnarTraceSet(("a",), (-1,), [])


def test_trace_decode_round_trip(columnar_mode):
    trace = Trace.from_sets(
        [{"a"}, set(), {"a", "c"}, {"b", "c"}],
        alphabet=("a", "b", "c"),
    )
    columns = ColumnarTraceSet.from_traces([trace, trace])
    decoded = columns.trace(1)
    assert [sorted(v.true) for v in decoded] == [sorted(v.true) for v in trace]
    assert set(decoded.alphabet) == set(trace.alphabet)


def test_from_traces_matches_codec_encoding(columnar_mode):
    trace = Trace.from_sets([{"x"}, {"x", "y"}, set()], alphabet=("x", "y"))
    codec = AlphabetCodec(trace.alphabet)
    columns = ColumnarTraceSet.from_traces([trace], alphabet=trace.alphabet)
    assert list(columns.masks(0)) == [codec.encode(v) for v in trace]


# --------------------------------------------------------- serialisation ----
def test_bytes_round_trip(columnar_mode):
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


def test_save_load_round_trip(columnar_mode, tmp_path):
    columns = _sample_set()
    path = tmp_path / "corpus.rtrc"
    assert columns.save(path) == str(path)
    # Atomic write leaves no temp droppings behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.rtrc"]
    loaded = ColumnarTraceSet.load(path)
    assert loaded.lengths == columns.lengths
    assert [list(m) for m in loaded.mask_arrays()] == \
        [list(m) for m in columns.mask_arrays()]


def test_empty_set_round_trip(columnar_mode, tmp_path):
    columns = ColumnarTraceSet.from_mask_arrays([], symbols=("a",))
    path = tmp_path / "empty.rtrc"
    columns.save(path)
    loaded = ColumnarTraceSet.load(path)
    assert loaded.n_traces == 0
    assert loaded.total_ticks == 0


# ------------------------------------------------------------- rejection ----
def test_rejects_bad_magic(columnar_mode):
    blob = bytearray(_sample_set().to_bytes())
    blob[:4] = b"NOPE"
    with pytest.raises(TraceError, match="not a columnar"):
        ColumnarTraceSet.from_bytes(bytes(blob))
    with pytest.raises(TraceError, match="not a columnar"):
        ColumnarTraceSet.from_bytes(b"RT")  # shorter than the prefix


def test_rejects_version_mismatch(columnar_mode):
    blob = bytearray(_sample_set().to_bytes())
    blob[4:8] = struct.pack("<I", RTRC_VERSION + 1)
    with pytest.raises(TraceError, match="version"):
        ColumnarTraceSet.from_bytes(bytes(blob))


def test_rejects_truncation(columnar_mode):
    blob = _sample_set().to_bytes()
    with pytest.raises(TraceError, match="truncated|payload"):
        ColumnarTraceSet.from_bytes(blob[:10])
    with pytest.raises(TraceError, match="payload"):
        ColumnarTraceSet.from_bytes(blob[:-3])
    with pytest.raises(TraceError, match="payload"):
        ColumnarTraceSet.from_bytes(blob + b"\x00\x00\x00\x00")


def test_rejects_corrupt_header_and_payload(columnar_mode):
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


def _rtrc_bytes(symbols, lengths, values):
    """A well-formed ``.rtrc`` image (valid crc) of arbitrary masks."""
    payload = struct.pack(f"<{len(values)}i", *values)
    header = json.dumps({
        "symbols": list(symbols),
        "fingerprint": codec_fingerprint(symbols),
        "lengths": list(lengths),
        "payload_crc32": zlib.crc32(payload),
        "meta": {},
    }, sort_keys=True).encode("utf-8")
    prefix = b"RTRC" + struct.pack("<II", RTRC_VERSION, len(header))
    pad = b"\x00" * ((-(len(prefix) + len(header))) % 64)
    return prefix + header + pad + payload


def test_masks_outside_the_alphabet_are_refused(columnar_mode, tmp_path):
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


def test_load_rejects_corrupt_file(columnar_mode, tmp_path):
    path = tmp_path / "corrupt.rtrc"
    blob = bytearray(_sample_set().to_bytes())
    blob[-2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceError, match="crc32"):
        ColumnarTraceSet.load(path)


def test_load_structural_damage_raises_trace_error(columnar_mode,
                                                   tmp_path):
    """Every non-crc failure mode of a damaged file is a TraceError at
    ``load`` — magic, version, header JSON, and the payload-size
    promise — on the mapped (NumPy) and the read path alike."""
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


# ------------------------------------------------------- lazy NumPy ----
_LAZY_NUMPY = (
    "import sys, repro\n"
    "assert 'numpy' not in sys.modules, 'import repro loaded NumPy'\n"
    "from repro.trace import columnar\n"
    "columns = columnar.ColumnarTraceSet.from_mask_arrays([[1, 2]], 'ab')\n"
    "print(int('numpy' in sys.modules), columnar._np is not None,\n"
    "      type(columns.masks(0)).__module__)\n"
)


@pytest.mark.parametrize("no_numpy", [False, True])
def test_import_repro_loads_no_numpy(no_numpy):
    """``import repro`` loads no NumPy; the columnar store imports it on
    first use, and ``REPRO_NO_NUMPY`` still keeps it out."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("REPRO_NO_NUMPY", None)
    if no_numpy:
        env["REPRO_NO_NUMPY"] = "1"
    result = subprocess.run([sys.executable, "-c", _LAZY_NUMPY], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if no_numpy or importlib.util.find_spec("numpy") is None:
        assert result.stdout.split() == ["0", "False", "array"]
    else:
        assert result.stdout.split() == ["1", "True", "numpy"]
