"""A simple set-associative data cache with flush+reload semantics.

The AES case study (Section 9) leaks the transient reduced-round
ciphertext through the data cache: the wrong-path gadget loads
``probe_array[byte * page_size]`` and the attacker later measures reload
latencies to find the touched page (Flush+Reload [70]).  The model only
needs to distinguish hit from miss deterministically; latencies use
representative constants.

The set index is an XOR fold of the line address rather than a plain bit
slice: page-stride probe arrays (the 4KiB-slot Flush+Reload buffer of
Section 9) would otherwise alias into a handful of sets and the reload
pass would evict its own signal.  Real attacks probe through the last-
level cache, which is both large and hash-indexed; the fold models that.

A Flush+Reload sweep (:meth:`DataCache.reload`) costs O(sets the victim
touched), not O(probe lines): it answers which probe lines hit from the
few sets that can hold one, moves the counters at once, and owes the
fills (a *pending fill*) until something reads the cache again.  A
restore drops the pending fill unapplied; the twin
:class:`repro.fuzz.twins.EagerDataCache` fills every line at once and
the property tests pin the two bit-identical.
"""

from __future__ import annotations

from typing import Dict, List

from repro.utils.bits import fold_xor


class DataCache:
    """LRU set-associative cache of line addresses."""

    def __init__(
        self,
        sets: int = 1024,
        ways: int = 8,
        line_size: int = 64,
        hit_latency: int = 4,
        miss_latency: int = 300,
    ):
        if sets & (sets - 1):
            raise ValueError(f"set count must be a power of two, got {sets}")
        if line_size & (line_size - 1):
            raise ValueError(f"line size must be a power of two, got {line_size}")
        self.sets = sets
        self.ways = ways
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self._offset_bits = line_size.bit_length() - 1
        self._index_bits = sets.bit_length() - 1
        self._sets: List[List[int]] = [[] for _ in range(sets)]
        self.hits = 0
        self.misses = 0
        #: line -> set index memo.  The fold is pure, and workloads hammer
        #: a bounded working set of lines (probe arrays, tables), so the
        #: memo converges quickly and turns the per-access fold into one
        #: dict lookup.
        self._index_memo: dict = {}
        #: Set indices mutated since the last restore, plus the snapshot
        #: object that restore ran from.  Restoring *the same snapshot
        #: object* again only needs to visit the dirty sets -- the
        #: restore-per-trial pattern (train once, checkpoint, restore
        #: before every trial) touches a handful of sets per trial, so
        #: this turns an O(sets) scan into an O(touched) one.
        self._dirty: set = set()
        self._dirty_all = True
        self._restore_source = None
        #: The probe lines of the last :meth:`reload` whose fills are
        #: still owed, or ``None``.  Every method that reads or changes
        #: the line state applies them first; :meth:`restore` drops them.
        self._pending = None
        #: ``(restore source, probe groups, set indices)``: the sets in
        #: which the restore-source snapshot holds a probe line.
        self._source_probe_sets = None

    def _line(self, address: int) -> int:
        return address >> self._offset_bits

    def _index(self, line: int) -> int:
        index = self._index_memo.get(line)
        if index is None:
            if not self._index_bits:
                index = 0
            else:
                index = fold_xor(line, 48, self._index_bits)
            self._index_memo[line] = index
        return index

    def access(self, address: int) -> int:
        """Access ``address``: returns the latency and fills the line."""
        if self._pending is not None:  # inline: one call per load
            self._apply_pending()
        line = address >> self._offset_bits
        index = self._index_memo.get(line)
        if index is None:
            index = self._index(line)
        self._dirty.add(index)
        ways = self._sets[index]
        if line in ways:
            ways.remove(line)
            ways.insert(0, line)
            self.hits += 1
            return self.hit_latency
        ways.insert(0, line)
        if len(ways) > self.ways:
            ways.pop()
        self.misses += 1
        return self.miss_latency

    # ----- batched probe-array operations -------------------------------------
    #
    # Flush+Reload sweeps thousands of fixed slots per measurement; the
    # per-call overhead of ``access``/``flush`` dominates those sweeps.
    # Callers resolve their (line, set-index) pairs once and replay them
    # through these batch methods, which keep hit/miss accounting and LRU
    # movement identical to the one-at-a-time primitives.

    def resolve_lines(self, addresses) -> List[tuple]:
        """Pre-resolve ``(line, set index)`` pairs for a fixed address list."""
        resolved = []
        for address in addresses:
            line = address >> self._offset_bits
            resolved.append((line, self._index(line)))
        return resolved

    def access_resolved(self, resolved) -> List[bool]:
        """Access each pre-resolved line; True where it hit.

        Equivalent to calling :meth:`access` per address (same fills,
        evictions, and counters), minus the per-call dispatch.
        """
        self._apply_pending()
        hit_positions = self._fill(resolved)
        results = [False] * len(resolved)
        for position in hit_positions:
            results[position] = True
        self.hits += len(hit_positions)
        self.misses += len(resolved) - len(hit_positions)
        return results

    def reload(self, resolved, groups: Dict[int, tuple]) -> List[int]:
        """Reload each probe line in order; the positions that hit, ascending.

        ``resolved`` comes from :meth:`resolve_lines` over distinct
        lines and ``groups`` is :func:`group_by_set` of it.  Counters and
        every later observation match :meth:`access_resolved` of
        ``resolved``; only the fills may be deferred (see the module
        docstring).
        """
        self._apply_pending()
        hit_positions = self._reload(resolved, groups)
        self.hits += len(hit_positions)
        self.misses += len(resolved) - len(hit_positions)
        return hit_positions

    def _reload(self, resolved, groups: Dict[int, tuple]) -> List[int]:
        """The hit positions of a reload sweep; records the pending fill.

        Since the last restore, every set outside ``self._dirty`` holds
        the restore source's lines.  Where those hold no probe line, all
        of the set's probe accesses miss (the lines are distinct), so
        only the dirty sets and the source's probe-holding sets are
        simulated, each on a copy of its LRU list.  With no restore
        source to stand on, the sweep fills every line at once.
        """
        source = self._restore_source
        if source is None or self._dirty_all:
            return self._fill(resolved)
        memo = self._source_probe_sets
        if memo is None or memo[0] is not source or memo[1] is not groups:
            held = []
            for index, lines in source[0].items():
                group = groups.get(index)
                if group and any(line in lines for __, line in group):
                    held.append(index)
            memo = self._source_probe_sets = (source, groups,
                                              frozenset(held))
        sets = self._sets
        limit = self.ways
        hit_positions: List[int] = []
        for index in self._dirty.union(memo[2]):
            group = groups.get(index)
            if group is None:
                continue
            ways = sets[index]
            if not any(line in ways for __, line in group):
                continue
            ways = list(ways)
            for position, line in group:
                if line in ways:
                    ways.remove(line)
                    ways.insert(0, line)
                    hit_positions.append(position)
                else:
                    ways.insert(0, line)
                    if len(ways) > limit:
                        ways.pop()
        hit_positions.sort()
        self._pending = resolved
        return hit_positions

    def _fill(self, resolved) -> List[int]:
        """Access each pre-resolved line in order; the positions that hit.

        Fills, evictions and dirty marks only: no counter moves.
        """
        sets = self._sets
        limit = self.ways
        hit_positions: List[int] = []
        dirty = self._dirty.add
        for position, (line, index) in enumerate(resolved):
            dirty(index)
            ways = sets[index]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                hit_positions.append(position)
            else:
                ways.insert(0, line)
                if len(ways) > limit:
                    ways.pop()
        return hit_positions

    def _apply_pending(self) -> None:
        """Make the owed reload fills, if any (moves no counter)."""
        if self._pending is not None:
            resolved, self._pending = self._pending, None
            self._fill(resolved)

    def flush_resolved(self, resolved) -> None:
        """Evict each pre-resolved line (batched ``clflush`` loop)."""
        self._apply_pending()
        sets = self._sets
        dirty = self._dirty.add
        for line, index in resolved:
            dirty(index)
            ways = sets[index]
            if line in ways:
                ways.remove(line)

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is cached (no LRU effect)."""
        self._apply_pending()
        line = self._line(address)
        return line in self._sets[self._index(line)]

    def flush(self, address: int) -> None:
        """Evict the line holding ``address`` (the ``clflush`` primitive)."""
        self._apply_pending()
        line = self._line(address)
        index = self._index(line)
        self._dirty.add(index)
        ways = self._sets[index]
        if line in ways:
            ways.remove(line)

    def flush_all(self) -> None:
        """Evict everything (``wbinvd``)."""
        # Owed fills would be evicted at once: dropping them is the same.
        self._pending = None
        self._dirty_all = True
        self._sets = [[] for _ in range(self.sets)]

    def populated_lines(self) -> int:
        """Total cached lines."""
        self._apply_pending()
        return sum(len(ways) for ways in self._sets)

    # ----- checkpointing ------------------------------------------------------

    def snapshot(self) -> tuple:
        """Sparse checkpoint: non-empty sets (LRU order) plus counters."""
        self._apply_pending()
        lines = {
            index: tuple(ways)
            for index, ways in enumerate(self._sets) if ways
        }
        return lines, self.hits, self.misses

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot`; only diverged sets are rewritten.

        Restoring the *same snapshot object* consecutively visits only
        the sets mutated since the previous restore.  A pending reload
        fill is dropped: it never touched the sets.
        """
        self._pending = None
        lines, self.hits, self.misses = snap
        sets = self._sets
        if snap is self._restore_source and not self._dirty_all:
            for index in self._dirty:
                wanted = lines.get(index)
                ways = sets[index]
                if wanted is None:
                    if ways:
                        sets[index] = []
                elif len(ways) != len(wanted) or tuple(ways) != wanted:
                    sets[index] = list(wanted)
        else:
            for index, ways in enumerate(sets):
                wanted = lines.get(index)
                if wanted is None:
                    if ways:
                        sets[index] = []
                elif len(ways) != len(wanted) or tuple(ways) != wanted:
                    sets[index] = list(wanted)
        self._restore_source = snap
        self._dirty_all = False
        self._dirty.clear()

    def restored_from(self):
        """The snapshot this cache's state still equals, or ``None``.

        That is the last :meth:`restore`'s snapshot object while no set
        has been marked dirty, no :meth:`flush_all` has run and no
        reload fill is pending since; every state change does one of
        the three.  Digest consumers memoize per snapshot object on it.
        """
        if self._dirty or self._dirty_all or self._pending is not None:
            return None
        return self._restore_source


def group_by_set(resolved) -> Dict[int, tuple]:
    """``{set index: ((position, line), ...)}`` of a :meth:`resolve_lines`
    list, each group in probe order -- the shape :meth:`DataCache.reload`
    walks."""
    groups: Dict[int, list] = {}
    for position, (line, index) in enumerate(resolved):
        groups.setdefault(index, []).append((position, line))
    return {index: tuple(group) for index, group in groups.items()}
