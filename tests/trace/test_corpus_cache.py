"""Robustness tests for the on-disk corpus cache and cached ingest.

The contract under test: a cache can be corrupted, truncated, raced,
or versioned past — and the worst possible outcome is a re-parse.
Never a crash, never wrong masks.
"""

import os
import struct
import threading
import time

import pytest

from repro.cache import CorpusCache
from repro.logic.codec import AlphabetCodec
from repro.protocols.fixtures import ocp_simple_vcd
from repro.protocols.ocp import ocp_simple_read_chart
from repro.synthesis.tr import tr_compiled
from repro.trace.columnar import (
    RTRC_VERSION,
    ColumnarTraceSet,
    corpus_key,
    ingest_vcd,
)
from repro.trace.vcd_reader import SignalBinding, VcdReader


@pytest.fixture()
def dump(tmp_path):
    path = tmp_path / "ocp.vcd"
    path.write_text(ocp_simple_vcd(seed=6, repeats=2))
    return str(path)


@pytest.fixture()
def codec():
    return tr_compiled(ocp_simple_read_chart()).codec


def _expected_masks(dump, codec):
    with open(dump) as stream:
        reader = VcdReader.from_text(stream.read())
    return [codec.encode(v) for v in reader.valuations(clock="clk")]


def _ingest(dump, codec, cache, **kwargs):
    return ingest_vcd(dump, codec, cache=cache, clock="clk", **kwargs)


# ------------------------------------------------------- CorpusCache API ----
def test_store_load_invalidate_cycle(tmp_path):
    cache = CorpusCache(tmp_path / "cache")
    assert cache.load_bytes("deadbeef") is None
    path = cache.store_bytes("deadbeef", b"payload")
    assert os.path.exists(path)
    assert cache.load_bytes("deadbeef") == b"payload"
    assert list(cache.keys()) == ["deadbeef"]
    assert len(cache) == 1
    cache.store_bytes("deadbeef", b"rewritten")
    assert cache.load_bytes("deadbeef") == b"rewritten"
    cache.invalidate("deadbeef")
    cache.invalidate("deadbeef")  # idempotent
    assert cache.load_bytes("deadbeef") is None
    assert len(cache) == 0


def test_store_leaves_no_temp_files(tmp_path):
    cache = CorpusCache(tmp_path / "cache")
    for round_ in range(3):
        cache.store_bytes("k" * 8, b"x" * 1000)
    names = os.listdir(cache.root)
    assert names == ["kkkkkkkk.rtrc"]


def test_unsafe_keys_rejected(tmp_path):
    cache = CorpusCache(tmp_path / "cache")
    for key in ("", "../escape", "a/b", ".hidden", "sp ace", "nul\x00"):
        with pytest.raises(ValueError):
            cache.path_for(key)


def test_clear(tmp_path):
    cache = CorpusCache(tmp_path / "cache")
    cache.store_bytes("aa", b"1")
    cache.store_bytes("bb", b"2")
    cache.clear()
    assert len(cache) == 0


# -------------------------------------------------------- ingest caching ----
def test_cold_then_warm_hit(dump, codec, tmp_path):
    cache = CorpusCache(tmp_path / "cache")
    expected = _expected_masks(dump, codec)
    cold, hit, path = _ingest(dump, codec, cache)
    assert not hit and os.path.exists(path)
    assert list(cold.masks(0)) == expected
    warm, hit, _ = _ingest(dump, codec, cache)
    assert hit
    assert list(warm.masks(0)) == expected
    assert warm.fingerprint == codec_fp(codec)
    assert warm.meta["clock"] == "clk"
    assert warm.meta["source"] == os.path.basename(dump)


def codec_fp(codec):
    from repro.trace.columnar import codec_fingerprint

    return codec_fingerprint(codec)


def test_key_separates_every_ingredient(dump, codec):
    with open(dump, "rb") as stream:
        import hashlib

        digest = hashlib.sha256(stream.read()).hexdigest()
    base = corpus_key(digest, codec, clock="clk")
    assert corpus_key(digest, codec, clock="clk") == base  # deterministic
    others = [
        corpus_key("0" * 64, codec, clock="clk"),
        corpus_key(digest, AlphabetCodec(["other"]), clock="clk"),
        corpus_key(digest, codec, clock="other_clk"),
        corpus_key(digest, codec, period=2),
        corpus_key(digest, codec, clock="clk", offset=1),
        corpus_key(digest, codec, clock="clk", until=9),
        corpus_key(digest, codec, clock="clk",
                   binding=SignalBinding({"a": "b"})),
    ]
    assert len(set(others + [base])) == len(others) + 1


@pytest.mark.parametrize("damage", [
    lambda blob: b"",                                      # truncated to nothing
    lambda blob: blob[: len(blob) // 2],                   # truncated mid-payload
    lambda blob: b"garbage not rtrc at all",               # foreign bytes
    lambda blob: blob[:4] + struct.pack("<I", RTRC_VERSION + 7) + blob[8:],
    lambda blob: blob[:-1] + bytes([blob[-1] ^ 0x20]),     # payload bit flip
    lambda blob: blob[:13] + b"}" + blob[14:],             # header corruption
])
def test_damaged_entry_is_reparsed_never_served(dump, codec, tmp_path,
                                                damage):
    cache = CorpusCache(tmp_path / "cache")
    expected = _expected_masks(dump, codec)
    _, _, entry_path = _ingest(dump, codec, cache)
    with open(entry_path, "rb") as stream:
        blob = stream.read()
    with open(entry_path, "wb") as stream:
        stream.write(damage(blob))
    rebuilt, hit, _ = _ingest(dump, codec, cache)
    assert not hit  # the damaged entry was treated as a miss
    assert list(rebuilt.masks(0)) == expected
    # ... and the entry was repaired on the way out.
    again, hit, _ = _ingest(dump, codec, cache)
    assert hit
    assert list(again.masks(0)) == expected


def test_stale_codec_entry_is_not_served(dump, codec, tmp_path):
    """An intact entry whose codec drifted is rebuilt, not trusted."""
    cache = CorpusCache(tmp_path / "cache")
    _, _, entry_path = _ingest(dump, codec, cache)
    imposter = ColumnarTraceSet.from_mask_arrays(
        [[1, 2, 3]], symbols=("alphabet", "not", "the")
    )
    imposter.save(entry_path)
    rebuilt, hit, _ = _ingest(dump, codec, cache)
    assert not hit
    assert list(rebuilt.masks(0)) == _expected_masks(dump, codec)


def test_refresh_forces_reparse(dump, codec, tmp_path):
    cache = CorpusCache(tmp_path / "cache")
    _ingest(dump, codec, cache)
    _, hit, _ = _ingest(dump, codec, cache, refresh=True)
    assert not hit
    _, hit, _ = _ingest(dump, codec, cache)
    assert hit


def test_concurrent_ingest_same_dump(dump, codec, tmp_path):
    """Racing writers: everyone gets correct masks, one entry remains."""
    cache = CorpusCache(tmp_path / "cache")
    expected = _expected_masks(dump, codec)
    results = [None] * 8
    errors = []

    def work(slot):
        try:
            columns, _, _ = _ingest(dump, codec, cache)
            results[slot] = list(columns.masks(0))
        except BaseException as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(len(results))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert all(masks == expected for masks in results)
    assert len(cache) == 1
    assert not [name for name in os.listdir(cache.root)
                if name.startswith(".tmp")]


def test_ingest_without_cache_just_parses(dump, codec):
    columns, hit, path = ingest_vcd(dump, codec, clock="clk")
    assert not hit and path is None
    assert list(columns.masks(0)) == _expected_masks(dump, codec)


# ------------------------------------------------- crashed-writer sweep ----
def test_open_sweeps_stale_tmp_orphans_and_keeps_live_ones(tmp_path):
    """A writer killed mid-write (OOM, SIGKILL) leaves a `.tmp-*` file
    no rename will ever reclaim; opening the cache must sweep the stale
    ones while leaving a live concurrent writer's temp file alone."""
    root = tmp_path / "cache"
    cache = CorpusCache(root)
    cache.store_bytes("survivor", b"payload")

    # Simulate the crash: mkstemp happened, the process died, no
    # replace.  One orphan is ancient, one is seconds old ("live").
    stale = root / ".tmp-dead-writer.rtrc"
    stale.write_bytes(b"half-written")
    ancient = time.time() - 7200
    os.utime(stale, (ancient, ancient))
    live = root / ".tmp-live-writer.rtrc"
    live.write_bytes(b"in flight")

    reopened = CorpusCache(root)
    assert not stale.exists()  # the orphan is gone
    assert live.exists()  # the in-flight write is untouched
    assert reopened.load_bytes("survivor") == b"payload"  # entries kept

    # An aggressive threshold reclaims everything on the next open.
    CorpusCache(root, stale_tmp_seconds=0.0)
    assert not live.exists()
    assert reopened.load_bytes("survivor") == b"payload"


def test_sweep_reports_count_and_survives_unreadable_roots(tmp_path):
    root = tmp_path / "cache"
    cache = CorpusCache(root)
    for index in range(3):
        orphan = root / f".tmp-{index}.rtrc"
        orphan.write_bytes(b"x")
        os.utime(orphan, (time.time() - 7200,) * 2)
    assert cache._sweep_stale_tmp() == 3
    assert cache._sweep_stale_tmp() == 0  # idempotent
    # A root that disappears between open and sweep is a no-op, not a
    # crash (the cache contract: worst case is a re-parse).
    vanished = CorpusCache(tmp_path / "gone")
    os.rmdir(vanished.root)
    assert vanished._sweep_stale_tmp() == 0
