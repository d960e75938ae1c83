"""The artifact cache: in-process memo + optional on-disk JSON mirror.

Records are small JSON-serializable dicts keyed by content-addressed
strings (built from the fingerprints of everything the record depends
on), so a record can never be served stale: mutate the CDFG or the
delay model and the key changes.

Disk layout: one JSON file (``explore.json`` by default) inside the
cache directory (``.repro-cache/`` by default), written atomically via
a temp file + rename.  Because floats are serialized with ``repr``
precision by :mod:`json`, a record round-trips bit-identically —
the property the cold-vs-warm equivalence tests pin down.

Every lookup is counted in :meth:`ArtifactCache.stats` (``hits`` /
``misses``); the explorer marks its hits with ``explore/cache-hit``
spans so ``repro profile`` stays honest about work that was *not*
redone.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Sequence, Union


@contextmanager
def file_lock(target: Union[str, Path]):
    """Advisory exclusive lock guarding writes to ``target`` (best-effort).

    Serializes cooperating writers (shards, concurrent benches) around
    read-merge-rename critical sections by ``flock``-ing a read-only
    descriptor of ``target``'s directory, so the lock leaves no file
    behind.  Degrades to a no-op where ``fcntl`` or the filesystem
    refuses — the rename itself is still atomic, so an unserialized
    writer can lose *other* writers' fresh entries but can never
    produce a torn file.
    """
    try:
        import fcntl
    except ImportError:  # non-POSIX: rename-atomicity only
        yield
        return
    try:
        fd = os.open(str(Path(target).parent), os.O_RDONLY)
    except OSError:
        yield
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the lock


def quarantine(
    path: Path, reason: str, store: str, siblings: Sequence[str] = ()
) -> Optional[Path]:
    """Rename a corrupt store file to ``<name>.corrupt-<stamp>[-n]``.

    Each suffix in ``siblings`` (SQLite's ``-wal``/``-shm``) names a
    companion file that follows the store to the same stamp.  Returns
    the quarantine path, or ``None`` when the rename failed (read-only
    directory: the run proceeds cold and the file stays put).  The
    warning names the kind of ``store`` so operators find every
    quarantined file the same way.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S")
    target = path.with_name(f"{path.name}.corrupt-{stamp}")
    counter = 0
    while target.exists():
        counter += 1
        target = path.with_name(f"{path.name}.corrupt-{stamp}-{counter}")
    try:
        os.replace(path, target)
    except OSError:
        return None
    for suffix in siblings:
        try:
            os.replace(f"{path}{suffix}", f"{target}{suffix}")
        except OSError:
            pass  # absent sibling
    warnings.warn(
        f"quarantined corrupt {store} {path} -> {target.name} ({reason})",
        RuntimeWarning,
        stacklevel=3,
    )
    return target


#: default on-disk location (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro-cache"

_FORMAT_VERSION = 1


class ArtifactCache:
    """Content-addressed memo for synthesis/exploration artifacts.

    ``directory=None`` keeps the cache purely in-process (still useful:
    the incremental engine shares records within one run).  With a
    directory, :meth:`load` merges the persisted records in and
    :meth:`save` writes the union back atomically.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None, filename: str = "explore.json"):
        self.directory = Path(directory) if directory is not None else None
        self.filename = filename
        self.memory: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.loaded_entries = 0
        if self.directory is not None:
            self.load()

    # ------------------------------------------------------------------
    @property
    def path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / self.filename

    def load(self) -> int:
        """Merge the on-disk records into memory; returns the count.

        A cache that cannot be parsed is *quarantined* — renamed to
        ``<name>.corrupt-<timestamp>`` with a one-line warning — so the
        run proceeds cold without silently overwriting the evidence of
        what corrupted it.  A version mismatch is not corruption (the
        file belongs to another format) and just reads as cold.
        """
        path = self.path
        if path is None or not path.exists():
            return 0
        entries, reason = self._read_entries(path)
        if entries is None:
            if reason is not None:
                quarantine(path, reason, "artifact cache")
            return 0
        for key, record in entries.items():
            self.memory.setdefault(key, record)
        self.loaded_entries = len(entries)
        return self.loaded_entries

    @staticmethod
    def _read_entries(path: Path):
        """Parse a mirror file: ``(entries, None)`` on success,
        ``(None, reason)`` when corrupt, ``(None, None)`` when merely
        unreadable or of another format version."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return None, None  # unreadable (permissions, transient IO)
        except ValueError:
            return None, "not valid JSON"
        if not isinstance(data, dict):
            return None, "top-level payload is not an object"
        if data.get("version") != _FORMAT_VERSION:
            return None, None
        entries = data.get("entries")
        if not isinstance(entries, dict):
            return None, "'entries' is not an object"
        return entries, None

    def save(self, merge: bool = True) -> Optional[Path]:
        """Atomically persist every record; no-op without a directory.

        With ``merge`` (the default), the current on-disk entries are
        re-read under an advisory lock and unioned in first (memory
        wins on key collisions — irrelevant in practice, since keys are
        content-addressed and colliding records are identical), so two
        processes saving concurrently converge to the union instead of
        the last writer clobbering the other's entries.
        """
        path = self.path
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        with file_lock(path):
            entries = dict(self.memory)
            if merge and path.exists():
                on_disk, __ = self._read_entries(path)
                for key, record in (on_disk or {}).items():
                    entries.setdefault(key, record)
            payload = json.dumps(
                {"version": _FORMAT_VERSION, "entries": entries}, sort_keys=True
            )
            handle = tempfile.NamedTemporaryFile(
                "w", dir=str(path.parent), prefix=path.name, suffix=".tmp",
                delete=False, encoding="utf-8",
            )
            try:
                with handle:
                    handle.write(payload)
                os.replace(handle.name, path)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        return path

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        record = self.memory.get(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict) -> dict:
        self.memory[key] = record
        self.stores += 1
        return record

    def __contains__(self, key: str) -> bool:
        return key in self.memory

    def __len__(self) -> int:
        return len(self.memory)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self.memory),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "loaded": self.loaded_entries,
        }


def make_key(*parts: object) -> str:
    """Join key components into one cache key string."""
    return ":".join(str(part) for part in parts)
