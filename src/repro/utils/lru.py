"""The one least-recently-used map and the one cache-counter type.

Three caches serve the prefix-once/suffix-many shape of every primitive:
the replay engine's checkpoint cache, the snapshot store's memory tier
and the architectural trace cache.  All three bound their live entries
with :class:`LruCache` and count their traffic in :class:`CacheStats`;
what differs between them (pinning, the spill tier, trace verification)
stays with the one cache that needs it.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, Optional


class LruCache:
    """A mapping bounded by entry count, evicting least recently used first.

    :meth:`get` refreshes an entry's recency, :meth:`peek` does not;
    both return ``None`` for a missing key, so values are never ``None``.
    ``capacity`` may be lowered at run time (the replay engine shrinks
    it by its pinned checkpoints); :meth:`trim` then evicts down to it.
    Not thread-safe: owners shared between threads call it under their
    own lock.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        """The value under ``key`` (now most recent), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The value under ``key``, or ``None``; recency is untouched."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> int:
        """Store ``value`` as the most recent entry; return evictions."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        return self.trim()

    def trim(self) -> int:
        """Evict oldest entries until ``capacity`` holds; return the count."""
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove and return the value under ``key`` (``None`` if absent)."""
        return self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        """Keys, least recently used first."""
        return iter(self._entries)


@dataclass
class CacheStats:
    """Counters of one content-addressed cache.

    A memory-only cache leaves the disk and spill counters at zero; only
    a verifying cache counts divergences.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    #: Artifacts written to a spill directory.
    spills: int = 0
    #: Disk artifacts that failed to decode and were quarantined.
    invalid_artifacts: int = 0
    #: Entries that failed verification on lookup and were evicted
    #: (each one also counts as a miss).
    divergences: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups: hits plus misses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = dataclasses.asdict(self)
        data["hit_rate"] = round(self.hit_rate, 4)
        return data

    def reset(self) -> None:
        """Zero every counter (start of a measurement window)."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)
