"""Caches: in-memory identity memos and the on-disk corpus store.

Two patterns live here:

* :class:`IdentityCache` — hot-path layers derive expensive artifacts
  from one long-lived immutable
  :class:`~repro.runtime.compiled.CompiledMonitor` (its flat
  :class:`~repro.runtime.vector.VectorTable` lowering, its loaded
  native kernel) and memoize them by the monitor's *identity*: a
  strong reference keeps the id stable for the entry's lifetime, a
  defensive identity check guards the (unreachable, by construction)
  id-collision case, and a bounded FIFO keeps memory bounded.

* :class:`CorpusCache` — a content-addressed on-disk blob store for
  pre-encoded columnar traces (:mod:`repro.trace.columnar`).  Keys are
  caller-computed digests; entries are whole files written atomically
  (temp file + ``os.replace``), so concurrent writers race harmlessly
  (last full write wins, readers never observe a partial entry) and a
  corrupted entry is simply dropped and rebuilt by its caller.  The
  store is deliberately dumb about contents: validation (magic,
  version, checksums) belongs to the payload format, which knows what
  "intact" means.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Iterator, Optional, Union

__all__ = ["CorpusCache", "IdentityCache"]


class IdentityCache:
    """``id(source) -> value`` memo with strong refs and a size bound.

    Entries hold a strong reference to their source object, so an id
    cannot be recycled while its entry lives; :meth:`get` still
    verifies identity defensively.  When full, the oldest entry is
    evicted (dicts iterate in insertion order).
    """

    __slots__ = ("_entries", "limit")

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError("cache limit must be positive")
        self._entries: dict = {}
        self.limit = int(limit)

    def get(self, source: Any) -> Optional[Any]:
        entry = self._entries.get(id(source))
        if entry is not None and entry[0] is source:
            return entry[1]
        return None

    def put(self, source: Any, value: Any) -> Any:
        """Store (evicting the oldest entries if full); returns ``value``."""
        while len(self._entries) >= self.limit:
            self._entries.pop(next(iter(self._entries)))
        self._entries[id(source)] = (source, value)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class CorpusCache:
    """Content-addressed on-disk blob store, one file per key.

    ``load_bytes`` returns ``None`` for anything it cannot read — a
    missing entry, a permission problem, a directory race — never an
    exception: cache misses must degrade to "re-derive", not crash the
    caller.  ``store_bytes`` is atomic (temp file in the same
    directory + ``os.replace``), so readers and concurrent writers
    only ever see complete entries.  Opening a cache sweeps ``.tmp-*``
    orphans older than ``stale_tmp_seconds`` — the droppings of
    writers killed mid-write, which no rename would ever reclaim.
    """

    _SAFE_KEY_CHARS = frozenset(
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
    )

    #: Temp-file prefix of in-flight writes (swept when stale).
    _TMP_PREFIX = ".tmp-"

    def __init__(self, root: Union[str, "os.PathLike[str]"],
                 suffix: str = ".rtrc",
                 stale_tmp_seconds: float = 3600.0):
        self.root = os.fspath(root)
        self.suffix = suffix
        self.stale_tmp_seconds = stale_tmp_seconds
        os.makedirs(self.root, exist_ok=True)
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Remove orphaned temp files left by writers that died mid-write.

        ``store_bytes`` unlinks its temp file on any failure it can
        see, but a writer killed outright (OOM, SIGKILL, power loss)
        leaves ``.tmp-*`` orphans that nothing would ever reclaim.
        Swept on cache open; only files older than
        ``stale_tmp_seconds`` go, so a *live* concurrent writer's temp
        file is never yanked out from under it.  Returns the number
        removed (diagnostics, tests).
        """
        removed = 0
        cutoff = time.time() - self.stale_tmp_seconds
        try:
            names = os.listdir(self.root)
        except OSError:
            return removed
        for name in names:
            if not name.startswith(self._TMP_PREFIX):
                continue
            path = os.path.join(self.root, name)
            try:
                if os.path.getmtime(path) <= cutoff:
                    os.unlink(path)
                    removed += 1
            except OSError:
                # Raced with its writer's rename/unlink — fine either way.
                continue
        return removed

    def path_for(self, key: str) -> str:
        """The entry file a ``key`` maps to (whether or not it exists)."""
        if not key or not set(key) <= self._SAFE_KEY_CHARS \
                or key.startswith("."):
            raise ValueError(f"unsafe cache key {key!r}")
        return os.path.join(self.root, key + self.suffix)

    def load_bytes(self, key: str) -> Optional[bytes]:
        try:
            with open(self.path_for(key), "rb") as stream:
                return stream.read()
        except OSError:
            return None

    def store_bytes(self, key: str, data: bytes) -> str:
        """Atomically (re)write one entry; returns its path."""
        path = self.path_for(key)
        handle, tmp = tempfile.mkstemp(
            prefix=self._TMP_PREFIX, suffix=self.suffix, dir=self.root
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def invalidate(self, key: str) -> None:
        """Drop one entry (missing is fine — eviction is idempotent)."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            pass

    def keys(self) -> Iterator[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in sorted(names):
            if name.endswith(self.suffix) and not name.startswith("."):
                yield name[: -len(self.suffix)]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> None:
        for key in list(self.keys()):
            self.invalidate(key)
