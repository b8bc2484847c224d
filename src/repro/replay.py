"""Prefix-replay engine: snapshot-backed guess batching (ARCHITECTURE.md §9).

The paper's Section 4--6 primitives all share one loop shape: establish a
history prefix (clear the PHR, run the victim, prime a PHT entry), then
measure many small divergent suffixes -- one per doublet guess, per
probe candidate, per leak coordinate.  Re-running the prefix for every
suffix costs O(guesses x full-run).  :class:`ReplayEngine` executes each
distinct prefix once, checkpoints the full machine through
:meth:`Machine.snapshot` (PHR, base + tagged PHTs, BTB, RAS, IBP, cache,
perf counters), and replays suffixes by ``restore()`` + run-suffix:
O(full-run + sum-of-suffixes).

Checkpoints form a tree.  ``checkpoint(key, build, parent)`` declares
that state ``key`` is reached by running ``build()`` from state
``parent`` (the implicit root is the machine state at engine
construction), so successive reads extend the previous prefix
incrementally instead of rebuilding from scratch.  Builders must be
deterministic functions of the machine state they start from -- that is
exactly the property the fast engine's snapshot-replay fuzz arm pins.
The engine caches a snapshot per key, so establishing a state is a
diff-based ``restore()``.  Determinism makes that interchangeable with
re-running the whole builder chain from the root for every evaluation:
the naive twin :class:`repro.fuzz.twins.NaiveReplayEngine` does exactly
that, property tests pin the two bit for bit, and benchmarks measure the
gap.

The cache is bounded (a :class:`~repro.utils.lru.LruCache`).  Evicting
a checkpoint is safe because the builder chain is retained: the state is
simply rebuilt (and re-cached) on next use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.isa.identity import content_key
from repro.utils.lru import LruCache

#: Sentinel key for the machine state captured at engine construction.
ROOT: Hashable = ("replay-root",)


class ReplayError(ValueError):
    """Misuse of the replay engine (unknown key, bad capacity, ...)."""


@dataclass
class ReplayStats:
    """Counters for the perf benches and for cache-behaviour tests."""

    prefix_runs: int = 0  #: builder executions (cache misses, naive reruns)
    suffix_runs: int = 0  #: evaluate() suffix executions
    checkpoint_hits: int = 0
    checkpoint_misses: int = 0
    restores: int = 0  #: Machine.restore() calls issued by the engine
    evictions: int = 0
    #: Snapshots pinned by :meth:`ReplayEngine.capture` /
    #: :meth:`ReplayEngine.adopt` over the engine's lifetime (never
    #: decremented -- it counts pin *events*, not live pins).
    pins: int = 0
    #: Checkpoint misses resolved from the shared snapshot store
    #: (:attr:`ReplayEngine.store`) instead of a rebuild.
    store_hits: int = 0
    #: Checkpoint misses the store could not serve either.
    store_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Checkpoint hits over lookups (0.0 before any lookup).

        Store hits count as hits -- the prefix was *not* rebuilt -- so
        the rate answers the question the benchmarks ask: what fraction
        of establishes avoided running the builder chain.
        """
        lookups = self.checkpoint_hits + self.checkpoint_misses
        if not lookups:
            return 0.0
        return (self.checkpoint_hits + self.store_hits) / lookups

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def reset(self) -> None:
        """Zero every counter.

        For benchmarks that reuse one warm engine across measurement
        windows: the cached snapshots (and pins) survive -- only the
        accounting restarts, so each window's hit rate reflects that
        window alone.
        """
        for name in self.as_dict():
            setattr(self, name, 0)


@dataclass
class _Node:
    """One declared checkpoint: how to rebuild it, and its cached state."""

    parent: Hashable
    build: Optional[Callable[[], Any]]  #: ``None`` for captured states
    depth: int


class ReplayEngine:
    """Keyed checkpoint cache over one :class:`~repro.cpu.machine.Machine`.

    The engine snapshots the machine at construction time as the root of
    the checkpoint tree; every declared prefix extends the root or
    another declared checkpoint.
    """

    ROOT = ROOT

    def __init__(self, machine, capacity: int = 128, store=None,
                 store_scope: Optional[Hashable] = None):
        if capacity < 1:
            raise ReplayError(f"capacity must be >= 1, got {capacity}")
        if store is not None and store_scope is None:
            raise ReplayError(
                "a shared store needs a store_scope naming the "
                "(profile, prefix program) identity its checkpoints "
                "belong to -- engine keys alone are not content addresses")
        self.machine = machine
        self.capacity = capacity
        #: Optional shared snapshot store: the service's
        #: ``SnapshotStore`` or any object with its ``get``/``put``,
        #: addressed by :func:`repro.isa.identity.content_key`.  On a
        #: local checkpoint miss the engine consults the store before
        #: rebuilding, and publishes freshly built checkpoints back --
        #: that is how concurrent jobs against the same victim+profile
        #: share prefixes across requests and restarts.
        self.store = store
        self.store_scope = store_scope
        self.stats = ReplayStats()
        self._nodes: Dict[Hashable, _Node] = {}
        #: key -> MachineSnapshot of built checkpoints; its capacity is
        #: ``capacity`` minus the pinned snapshots.
        self._snapshots = LruCache(capacity)
        #: key -> MachineSnapshot for captured states (never evicted --
        #: there is no builder chain to rebuild them from).  Pinned
        #: snapshots count against ``capacity``; :meth:`capture` refuses
        #: to pin past it rather than silently growing the cache or
        #: starving the LRU side into a store-then-evict loop.
        self._pinned: Dict[Hashable, Any] = {}
        self._root_snapshot = machine.snapshot()

    # ------------------------------------------------------------------

    def checkpoint(self, key: Hashable, build: Callable[[], Any],
                   parent: Hashable = ROOT) -> Hashable:
        """Declare state ``key`` = run ``build()`` from state ``parent``.

        Establishes the state immediately (the machine is left at
        ``key``) and returns ``key`` for use with :meth:`evaluate`.
        Re-declaring an existing key with a different parent chain raises
        -- a key names one state, forever.
        """
        node = self._nodes.get(key)
        if node is None:
            if parent is not ROOT and parent not in self._nodes:
                raise ReplayError(f"unknown parent checkpoint {parent!r}")
            depth = 0 if parent is ROOT else self._nodes[parent].depth + 1
            self._nodes[key] = _Node(parent=parent, build=build, depth=depth)
        elif node.parent != parent:
            raise ReplayError(
                f"checkpoint {key!r} already declared with parent "
                f"{node.parent!r}")
        self._establish(key)
        return key

    def capture(self, key: Hashable, parent: Hashable = ROOT) -> Hashable:
        """Adopt the machine's *current* state as checkpoint ``key``.

        For prefixes whose builders depend on evolving out-of-band state
        (the AES attack's heal-then-poison sequence tracks the previous
        trial's coordinate outside the machine), re-running a builder
        from ``parent`` would not reproduce the live state.  ``capture``
        snapshots the machine exactly as it stands instead.  Captured
        checkpoints are pinned -- never evicted, since there is no
        builder to rebuild them from.  ``parent`` is recorded purely for
        :meth:`invalidate`'s descendant tracking.  The machine is left
        untouched.

        Pinned snapshots occupy cache slots: once ``capacity`` of them
        exist, further captures raise :class:`ReplayError` (an evicted
        capture would be unrecoverable, so eviction is not an option).
        Free slots with :meth:`invalidate` or a larger ``capacity``.
        """
        return self._pin("capture", key, parent, self.machine.snapshot)

    def adopt(self, key: Hashable, snapshot, parent: Hashable = ROOT
              ) -> Hashable:
        """Install an externally obtained snapshot as a pinned checkpoint.

        The cross-process twin of :meth:`capture`: a snapshot pulled
        from the shared store (built by another worker, or by a previous
        service run) becomes checkpoint ``key`` without touching the
        machine.  Same pinning/eviction semantics and the same capacity
        guard as :meth:`capture`.
        """
        return self._pin("adopt", key, parent, lambda: snapshot)

    def evaluate(self, key: Hashable, suffix: Callable[[], Any]) -> Any:
        """Establish state ``key`` and run ``suffix()`` on the machine.

        Establishing is (at worst) one diff-based restore; the naive
        twin re-runs the whole builder chain from the root instead.
        Either way the suffix starts from a bit-identical machine state,
        which is the equivalence the property tests pin.
        """
        self._establish(key)
        self.stats.suffix_runs += 1
        return suffix()

    def invalidate(self, key: Optional[Hashable] = None) -> None:
        """Drop cached snapshots (all of them, or ``key`` and descendants).

        Built declarations survive: those states rebuild from their
        parents on next use.  Captured checkpoints have no builder, so
        invalidation drops their declarations (and their descendants')
        entirely -- the keys become free for re-capture.  Use this when
        the machine is mutated out-of-band (e.g. a config swap) and
        cached states no longer describe it.
        """
        if key is None:
            stale = set(self._nodes)
            self._snapshots.clear()
        else:
            stale = self._descendants({key})
            for dead in stale:
                self._snapshots.pop(dead)
        # Descendants of a dropped capture cannot rebuild either.
        unrecoverable = self._descendants(
            {k for k in stale
             if k in self._nodes and self._nodes[k].build is None})
        for dead in unrecoverable:
            self._nodes.pop(dead, None)
            self._pinned.pop(dead, None)
            self._snapshots.pop(dead)
        self._resize()

    # ------------------------------------------------------------------

    def _pin(self, verb: str, key: Hashable, parent: Hashable,
             snapshot: Callable[[], Any]) -> Hashable:
        """Declare ``key`` as a pinned checkpoint holding ``snapshot()``."""
        if key is ROOT:
            raise ReplayError(f"cannot {verb} over the root key")
        if key in self._nodes:
            raise ReplayError(f"checkpoint {key!r} already declared")
        if parent is not ROOT and parent not in self._nodes:
            raise ReplayError(f"unknown parent checkpoint {parent!r}")
        if len(self._pinned) >= self.capacity:
            raise ReplayError(
                f"cannot {verb} {key!r}: all {self.capacity} cache "
                f"slot(s) hold pinned captures, which are never evicted; "
                f"invalidate() a capture or raise the engine capacity")
        depth = 0 if parent is ROOT else self._nodes[parent].depth + 1
        self._nodes[key] = _Node(parent=parent, build=None, depth=depth)
        self._pinned[key] = snapshot()
        self.stats.pins += 1
        # The pin shrank the LRU side's budget; trim it immediately so
        # the cache bound holds at all times, not just on the next store.
        self._resize()
        return key

    def _descendants(self, roots: Set[Hashable]) -> Set[Hashable]:
        """``roots`` plus every checkpoint declared below one of them.

        One pass suffices: a parent is always declared before its
        children, and :meth:`invalidate` drops a node only together with
        its descendants, so ``_nodes`` keeps parents ahead of children.
        """
        closed = set(roots)
        for child, node in self._nodes.items():
            if node.parent in closed:
                closed.add(child)
        return closed

    def _establish(self, key: Hashable) -> None:
        """Bring the machine to state ``key``."""
        if key is ROOT:
            self.machine.restore(self._root_snapshot)
            self.stats.restores += 1
            return
        if key not in self._nodes:
            raise ReplayError(f"unknown checkpoint {key!r}")
        pinned = self._pinned.get(key)
        if pinned is not None:
            self.stats.checkpoint_hits += 1
            self.machine.restore(pinned)
            self.stats.restores += 1
            return
        if self._nodes[key].build is None:
            raise ReplayError(
                f"captured checkpoint {key!r} has no snapshot left")
        self._establish_built(key)

    def _establish_built(self, key: Hashable) -> None:
        """Bring the machine to built checkpoint ``key``: restore its
        cached or shared-store snapshot, else rebuild and cache it."""
        snapshot = self._snapshots.get(key)
        if snapshot is not None:
            self.stats.checkpoint_hits += 1
            self.machine.restore(snapshot)
            self.stats.restores += 1
            return
        self.stats.checkpoint_misses += 1
        snapshot = self._store_fetch(key)
        if snapshot is not None:
            self.stats.evictions += self._snapshots.put(key, snapshot)
            self.machine.restore(snapshot)
            self.stats.restores += 1
            return
        self._rebuild(key)
        self._store(key)

    def _rebuild(self, key: Hashable) -> None:
        """Run ``key``'s builder from its (re-established) parent."""
        node = self._nodes[key]
        self._establish(node.parent)
        node.build()
        self.stats.prefix_runs += 1

    def _content_key(self, key: Hashable) -> Optional[str]:
        """The shared-store content address of built checkpoint ``key``.

        ``None`` when no store is attached, when any ancestor is a
        capture (its state is not a deterministic function of the
        declared chain, so it has no content identity), or when the key
        chain contains values the store cannot canonicalize.
        """
        if self.store is None:
            return None
        chain: List[Hashable] = []
        cursor = key
        while cursor is not ROOT:
            node = self._nodes[cursor]
            if node.build is None:
                return None
            chain.append(cursor)
            cursor = node.parent
        chain.reverse()
        try:
            return content_key("replay", self.store_scope, tuple(chain))
        except ValueError:
            return None

    def _store_fetch(self, key: Hashable):
        """A shared-store snapshot for ``key``, or ``None``."""
        content = self._content_key(key)
        if content is None:
            return None
        entry = self.store.get(content)
        if entry is None:
            self.stats.store_misses += 1
            return None
        self.stats.store_hits += 1
        snapshot, __ = entry
        return snapshot

    def _store(self, key: Hashable) -> None:
        snapshot = None
        if self._snapshots.capacity >= 1:
            snapshot = self.machine.snapshot()
            self.stats.evictions += self._snapshots.put(key, snapshot)
        # Every local slot pinned: storing locally would evict the
        # snapshot we just made (or another key) in an endless
        # store/evict churn, so the local tier runs uncached -- but the
        # shared store still gets the build, which is the whole point of
        # cross-request reuse.
        content = self._content_key(key)
        if content is not None:
            if snapshot is None:
                snapshot = self.machine.snapshot()
            self.store.put(content, snapshot)

    def _resize(self) -> None:
        """Fit the LRU side into what the pins leave of ``capacity``."""
        self._snapshots.capacity = max(0, self.capacity - len(self._pinned))
        self.stats.evictions += self._snapshots.trim()

    # ------------------------------------------------------------------

    def __contains__(self, key: Hashable) -> bool:
        return key is ROOT or key in self._nodes

    def snapshot_of(self, key: Hashable):
        """The stored snapshot for ``key`` (pinned or cached), or None."""
        if key is ROOT:
            return self._root_snapshot
        if key in self._pinned:
            return self._pinned[key]
        return self._snapshots.peek(key)

    def cached_keys(self) -> Tuple[Hashable, ...]:
        """Keys with a live snapshot (LRU order, oldest first)."""
        return tuple(self._snapshots)

    def depth_of(self, key: Hashable) -> int:
        """Chain length from the root to ``key`` (root itself is -1)."""
        if key is ROOT:
            return -1
        if key not in self._nodes:
            raise ReplayError(f"unknown checkpoint {key!r}")
        return self._nodes[key].depth
