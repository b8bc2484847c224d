"""Branch target buffer (Figure 1).

The BTB caches the taken target of recently executed branches so the
front end can redirect fetch before decode.  Pathfinder's attacks do not
exploit the BTB directly, but the machine models it so that (a) the BPU
diagram of Figure 1 is complete, (b) boundary experiments can confirm
which structures a given mitigation flushes, and (c) future extensions
(e.g. Jump-over-ASLR style probing) have a substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.utils.bits import mask


@dataclass(slots=True)
class BtbEntry:
    """One BTB way: partial tag plus cached target."""

    tag: int
    target: int


class BranchTargetBuffer:
    """Set-associative branch target cache with LRU replacement."""

    def __init__(self, sets: int = 1024, ways: int = 8,
                 index_low_bit: int = 5, tag_bits: int = 16):
        if sets & (sets - 1):
            raise ValueError(f"set count must be a power of two, got {sets}")
        self.sets = sets
        self.ways = ways
        self.index_low_bit = index_low_bit
        self.index_bits = sets.bit_length() - 1
        self.tag_bits = tag_bits
        self._sets: List[List[BtbEntry]] = [[] for _ in range(sets)]
        self._index_mask = mask(self.index_bits)
        self._tag_shift = index_low_bit + self.index_bits
        self._tag_mask = mask(tag_bits)
        self.hits = 0
        self.misses = 0
        #: Dirty-set tracking for fast consecutive restores from the
        #: same snapshot object (see :meth:`DataCache.restore`).
        self._dirty: set = set()
        self._dirty_all = True
        self._restore_source = None

    def _index(self, pc: int) -> int:
        return (pc >> self.index_low_bit) & self._index_mask

    def _tag(self, pc: int) -> int:
        return ((pc >> self._tag_shift) & self._tag_mask) ^ (pc & 0b11111)

    def predict(self, pc: int) -> Optional[int]:
        """Predicted target of the branch at ``pc``, or None on a miss."""
        wanted = self._tag(pc)
        index = self._index(pc)
        self._dirty.add(index)
        ways = self._sets[index]
        for position, entry in enumerate(ways):
            if entry.tag == wanted:
                # Move to MRU position.
                ways.insert(0, ways.pop(position))
                self.hits += 1
                return entry.target
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Record the resolved target for the branch at ``pc``."""
        # _index/_tag inlined: update runs on every committed taken branch.
        index = (pc >> self.index_low_bit) & self._index_mask
        wanted = ((pc >> self._tag_shift) & self._tag_mask) ^ (pc & 0b11111)
        self._dirty.add(index)
        ways = self._sets[index]
        for position, entry in enumerate(ways):
            if entry.tag == wanted:
                entry.target = target
                ways.insert(0, ways.pop(position))
                return
        ways.insert(0, BtbEntry(tag=wanted, target=target))
        if len(ways) > self.ways:
            ways.pop()

    def flush(self) -> None:
        """Drop all entries."""
        self._dirty_all = True
        self._sets = [[] for _ in range(self.sets)]

    def populated_entries(self) -> int:
        """Total live entries."""
        return sum(len(ways) for ways in self._sets)

    # ----- checkpointing ------------------------------------------------------

    def snapshot(self) -> tuple:
        """Sparse checkpoint: non-empty sets (LRU order) plus counters."""
        entries = {
            index: tuple((entry.tag, entry.target) for entry in ways)
            for index, ways in enumerate(self._sets) if ways
        }
        return entries, self.hits, self.misses

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot`; only diverged sets are rebuilt.

        Restoring the *same snapshot object* consecutively visits only
        the sets mutated since the previous restore (see
        :meth:`DataCache.restore`).
        """
        entries, self.hits, self.misses = snap
        if snap is self._restore_source and not self._dirty_all:
            indices = tuple(self._dirty)
        else:
            indices = range(self.sets)
        for index in indices:
            ways = self._sets[index]
            wanted = entries.get(index)
            if wanted is None:
                if ways:
                    self._sets[index] = []
                continue
            if len(ways) == len(wanted) and all(
                entry.tag == tag and entry.target == target
                for entry, (tag, target) in zip(ways, wanted)
            ):
                continue
            self._sets[index] = [BtbEntry(tag=tag, target=target)
                                 for tag, target in wanted]
        self._restore_source = snap
        self._dirty_all = False
        self._dirty.clear()
