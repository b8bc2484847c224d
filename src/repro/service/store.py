"""Content-addressed checkpoint store: memory tier + spill-to-disk tier.

The attack service's whole economy (ARCHITECTURE.md §11) rests on one
observation: every request against the same victim+profile rebuilds the
same prefix checkpoints.  The store gives those checkpoints an identity
that is *content*, not process-local object graph: a key is a
:func:`repro.isa.identity.content_key` of the ``(profile, prefix
program, prefix chain)`` description, so two requests -- in the same
worker, in different shard workers, or across a service restart -- that
would build the same state resolve to the same artifact.

Two tiers:

* **memory** -- live :class:`~repro.cpu.machine.MachineSnapshot` objects
  in a :class:`~repro.utils.lru.LruCache`, bounded by entry count.  Hits
  are free (no deserialization).
* **disk** -- versioned byte artifacts (``MachineSnapshot.to_bytes``
  plus a JSON meta sidecar in the same file), written through on
  :meth:`put` with the atomic temp+``os.replace`` pattern, bounded by a
  byte budget with oldest-first eviction.  A memory eviction only drops
  the object; the disk artifact stays, which is what makes checkpoints
  survive worker restarts.

Artifacts that fail to decode (truncation, version skew, a foreign
file) are quarantined out of the way and counted -- a damaged spill
directory degrades to cache misses, never to wrong state.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cpu.machine import MachineSnapshot
from repro.cpu.serialize import SNAPSHOT_FORMAT_VERSION, SnapshotFormatError
from repro.isa.identity import check_key
# perfbench imports TraceCache from here; its home is repro.isa.trace.
from repro.isa.trace import TraceCache  # noqa: F401
from repro.utils.lru import CacheStats, LruCache

#: Suffix of every artifact file in the spill directory.
ARTIFACT_SUFFIX = ".ckpt"


class StoreError(ValueError):
    """Misuse of the snapshot store (bad budgets, unusable directory)."""


class SnapshotStore:
    """Two-tier content-addressed cache of serialized machine snapshots.

    Thread-safe: the service's shard workers share one store, so every
    tier operation runs under one lock (snapshot (de)serialization is
    pure CPU work on immutable values and stays outside it where
    possible).

    ``directory=None`` runs memory-only (eviction simply drops);
    otherwise evictions leave the disk artifact in place and lookups
    fall through to it.  ``meta`` rides along with each artifact as a
    JSON document -- small derived values (the AES attack's
    per-iteration PHR map) that must travel with the snapshot.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 memory_entries: int = 64,
                 disk_budget_bytes: int = 256 * 1024 * 1024):
        if memory_entries < 0:
            raise StoreError(
                f"memory_entries must be >= 0, got {memory_entries}")
        if disk_budget_bytes < 1:
            raise StoreError(
                f"disk_budget_bytes must be >= 1, got {disk_budget_bytes}")
        self.directory = Path(directory) if directory is not None else None
        self.memory_entries = memory_entries
        self.disk_budget_bytes = disk_budget_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        #: key -> (snapshot, meta).
        self._memory = LruCache(memory_entries)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        #: Running byte total of the spill directory, seeded from one
        #: listing and kept up to date by put and eviction.  Another
        #: process sharing the directory can make it low; it is re-seeded
        #: from a fresh listing every time it crosses the budget.
        self._disk_total = self.disk_bytes()

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[MachineSnapshot, dict]]:
        """The ``(snapshot, meta)`` stored under ``key``, or ``None``.

        Memory tier first; a disk hit deserializes, promotes the entry
        back into the memory tier, and refreshes the artifact's eviction
        clock.
        """
        check_key(key, StoreError)
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self.stats.memory_hits += 1
                return entry
        entry = self._read_artifact(key)
        with self._lock:
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.disk_hits += 1
            self.stats.memory_evictions += self._memory.put(key, entry)
        return entry

    def put(self, key: str, snapshot: MachineSnapshot,
            meta: Optional[dict] = None) -> None:
        """Store ``(snapshot, meta)`` under content address ``key``.

        Write-through: the artifact lands in the spill directory
        immediately (atomic temp+rename), so a later memory eviction --
        or a worker restart -- costs one deserialization, not a rebuild.
        Content addressing makes re-puts of an existing key no-ops on
        the disk side: same key, same content.
        """
        check_key(key, StoreError)
        if not isinstance(snapshot, MachineSnapshot):
            raise StoreError(
                f"store values are MachineSnapshots, "
                f"got {type(snapshot).__name__}")
        meta = dict(meta) if meta else {}
        written = self._write_artifact(key, snapshot, meta)
        with self._lock:
            self.stats.puts += 1
            if written:
                self.stats.spills += 1
            self.stats.memory_evictions += self._memory.put(
                key, (snapshot, meta))
        if written:
            self._trim_disk(protect=key, written=written)

    def __contains__(self, key: str) -> bool:
        check_key(key, StoreError)
        with self._lock:
            if key in self._memory:
                return True
        return self._artifact_path(key) is not None \
            and self._artifact_path(key).exists()

    def __len__(self) -> int:
        """Distinct keys across both tiers."""
        with self._lock:
            keys = set(self._memory)
        keys.update(self._disk_keys())
        return len(keys)

    def clear(self, memory: bool = True, disk: bool = False) -> None:
        """Drop the memory tier and optionally every disk artifact."""
        with self._lock:
            if memory:
                self._memory.clear()
        if disk and self.directory is not None:
            for path in self._artifact_files():
                try:
                    path.unlink()
                except OSError:
                    pass
            with self._lock:
                self._disk_total = self.disk_bytes()

    # ------------------------------------------------------------------

    def disk_bytes(self) -> int:
        """Total bytes currently held by the disk tier."""
        return sum(size for __, size, __ in self._artifact_listing())

    def manifest(self) -> Dict[str, Any]:
        """A JSON-ready description of the spill directory.

        Uploaded as a CI artifact on service-smoke failure, so a broken
        run shows exactly which checkpoints existed, how big, and how
        the tiers were behaving.
        """
        listing = self._artifact_listing()
        with self._lock:
            memory_keys = list(self._memory)
        return {
            "directory": str(self.directory) if self.directory else None,
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "disk_budget_bytes": self.disk_budget_bytes,
            "memory_entries_budget": self.memory_entries,
            "memory_keys": memory_keys,
            "disk_artifacts": [
                {"key": key, "bytes": size}
                for key, size, __ in sorted(listing)
            ],
            "disk_bytes": sum(size for __, size, __ in listing),
            "stats": self.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    # disk tier internals
    # ------------------------------------------------------------------

    def _artifact_path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}{ARTIFACT_SUFFIX}"

    def _artifact_files(self) -> List[Path]:
        if self.directory is None:
            return []
        try:
            return [path for path in self.directory.iterdir()
                    if path.name.endswith(ARTIFACT_SUFFIX)]
        except OSError:
            return []

    def _disk_keys(self) -> Iterable[str]:
        return (path.name[:-len(ARTIFACT_SUFFIX)]
                for path in self._artifact_files())

    def _artifact_listing(self) -> List[Tuple[str, int, float]]:
        """(key, size, mtime) of every artifact currently on disk."""
        listing = []
        for path in self._artifact_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            listing.append((path.name[:-len(ARTIFACT_SUFFIX)],
                            stat.st_size, stat.st_mtime))
        return listing

    def _write_artifact(self, key: str, snapshot: MachineSnapshot,
                        meta: dict) -> int:
        """Spill one artifact; the bytes written (0: nothing written)."""
        path = self._artifact_path(key)
        if path is None:
            return 0
        if path.exists():
            # Content-addressed: an existing artifact for this key holds
            # these exact bytes already.  Refresh its eviction clock.
            try:
                os.utime(path)
            except OSError:
                pass
            return 0
        meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        body = (len(meta_blob).to_bytes(4, "big") + meta_blob
                + snapshot.to_bytes())
        # A scratch name of its own per writer: two threads putting the
        # same key must never write or publish each other's file.  The
        # ".tmp" suffix keeps scratch files out of the artifact listing.
        scratch = path.with_name(f"{key}.{uuid.uuid4().hex}.tmp")
        try:
            scratch.write_bytes(body)
            os.replace(scratch, path)
        except OSError:
            try:
                scratch.unlink()
            except OSError:
                pass
            return 0
        return len(body)

    def _read_artifact(self, key: str
                       ) -> Optional[Tuple[MachineSnapshot, dict]]:
        path = self._artifact_path(key)
        if path is None or not path.exists():
            return None
        try:
            body = path.read_bytes()
            if len(body) < 4:
                raise SnapshotFormatError("artifact truncated before meta")
            meta_len = int.from_bytes(body[:4], "big")
            if len(body) < 4 + meta_len:
                raise SnapshotFormatError("artifact truncated inside meta")
            meta = json.loads(body[4:4 + meta_len].decode("utf-8"))
            if not isinstance(meta, dict):
                raise SnapshotFormatError("artifact meta is not a mapping")
            snapshot = MachineSnapshot.from_bytes(body[4 + meta_len:])
        except (OSError, ValueError, SnapshotFormatError):
            self._quarantine(path)
            with self._lock:
                self.stats.invalid_artifacts += 1
            return None
        try:
            os.utime(path)  # refresh the eviction clock
        except OSError:
            pass
        return snapshot, meta

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _trim_disk(self, protect: Optional[str] = None,
                   written: int = 0) -> None:
        """Count ``written`` new bytes; evict oldest artifacts until the
        byte budget holds.

        O(1) while the running total stays under the budget; only a put
        that crosses it lists the directory, and the total is re-seeded
        from that listing.  The just-written key is protected so one
        oversized workload cannot evict its own checkpoint in a
        write/evict churn.
        """
        with self._lock:
            self._disk_total += written
            if self._disk_total <= self.disk_budget_bytes:
                return
            listing = self._artifact_listing()
            total = sum(size for __, size, __ in listing)
            for key, size, __ in sorted(listing, key=lambda item: item[2]):
                if total <= self.disk_budget_bytes:
                    break
                if key == protect:
                    continue
                try:
                    self._artifact_path(key).unlink()
                except OSError:
                    continue
                self.stats.disk_evictions += 1
                total -= size
            self._disk_total = total
