"""Pattern history tables (paper Section 2.2.2, Figure 3).

The CBP comprises a *base predictor* indexed by the low 13 bits of the PC,
plus three 4-way set-associative tagged tables of 512 sets.  Table ``i``
is indexed by a 9-bit function of the PC and an increasing slice of the
PHR (34 / 66 / 194 low doublets), with one PC bit (PC[5] or PC[4])
injected into the index and a tag formed from PC and PHR.

The paper does not publish the exact fold polynomials, so we use a
documented XOR fold (see DESIGN.md, decision 2).  The property every
attack depends on -- two lookups with equal ``(PC mod 2^16, PHR)`` always
hit the same entry, while different histories rarely do -- holds by
construction.

Hot path (DESIGN.md decision 5): every branch commit funnels through
``index``/``tag``, so each table caches the folds of the last PHR value
it hashed, keyed on that value alone.  A probe with a new value refolds
its window through the compiled halving ``fold_xor``; the tag folds are
computed only when a probe reaches an occupied set.  ``_reference_index``
and ``_reference_tag`` retain the definitional chunk-loop folds and
property tests pin the two paths bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cpu.phr import PathHistoryRegister
from repro.cpu.saturating import SaturatingCounter
from repro.utils.bits import (
    bit,
    bits,
    compiled_fold,
    fold_xor,
    fold_xor_reference,
    mask,
)

#: Index width: 8 folded history bits + 1 PC bit -> 512 sets.
INDEX_BITS = 9


@dataclass(slots=True)
class TaggedEntry:
    """One way of a tagged table set."""

    tag: int
    counter: SaturatingCounter
    useful: int = 0


class BasePredictor:
    """The PC-indexed bimodal predictor (Table 0 in Figure 3)."""

    def __init__(self, index_bits: int = 13, counter_bits: int = 3):
        self.index_bits = index_bits
        self.counter_bits = counter_bits
        self._index_mask = mask(index_bits)
        self._counters: List[Optional[SaturatingCounter]] = (
            [None] * (1 << index_bits)
        )
        #: Indices holding a live counter.  Maintained so that
        #: :meth:`snapshot`/:meth:`restore` touch only populated state
        #: instead of scanning all 2^index_bits slots; entries are added
        #: once per index (on lazy creation), never on the hot update path.
        self._populated: set = set()

    def index(self, pc: int) -> int:
        """Set index for ``pc`` -- simply PC[index_bits-1:0]."""
        return pc & self._index_mask

    def counter_at(self, pc: int) -> SaturatingCounter:
        """The (lazily created) counter for ``pc``."""
        idx = pc & self._index_mask
        counter = self._counters[idx]
        if counter is None:
            counter = SaturatingCounter(self.counter_bits)
            self._counters[idx] = counter
            self._populated.add(idx)
        return counter

    def predict(self, pc: int) -> bool:
        """Current prediction for ``pc``.

        Pure lookup: an index no branch has ever trained predicts the
        default (weakly not-taken) *without* materialising a counter, so
        predict-only probes leave :meth:`populated_entries` -- which the
        Section 10 mitigation benchmarks report -- untouched.
        """
        counter = self._counters[pc & self._index_mask]
        return counter is not None and counter.value >= counter.threshold

    def update(self, pc: int, taken: bool) -> None:
        """Train toward the observed outcome."""
        # counter_at, inlined: update runs on every committed branch.
        idx = pc & self._index_mask
        counter = self._counters[idx]
        if counter is None:
            counter = self._counters[idx] = SaturatingCounter(self.counter_bits)
            self._populated.add(idx)
        counter.update(taken)

    def flush(self) -> None:
        """Drop all state (mitigation experiments)."""
        self._counters = [None] * (1 << self.index_bits)
        self._populated.clear()

    def populated_entries(self) -> int:
        """Number of counters that have been trained."""
        return sum(1 for counter in self._counters if counter is not None)

    # ----- checkpointing ------------------------------------------------------

    def snapshot(self) -> dict:
        """Sparse value checkpoint ``{index: counter value}``.

        Keys are emitted in sorted order so equal predictor state always
        yields byte-identical serialized snapshots -- ``_populated`` is a
        set whose iteration order depends on insertion history, and the
        content digests of :mod:`repro.isa.identity` hash the pickled
        payload, not the dict's value equality.
        """
        counters = self._counters
        return {idx: counters[idx].value for idx in sorted(self._populated)}

    def restore(self, snap: dict) -> None:
        """Restore a :meth:`snapshot` in O(live + changed) work.

        Counters absent from the snapshot are dropped; surviving counters
        are rewritten in place (keeping object identity), and missing ones
        are recreated.
        """
        counters = self._counters
        for idx in self._populated - snap.keys():
            counters[idx] = None
        populated = set(snap)
        for idx, value in snap.items():
            counter = counters[idx]
            if counter is None:
                counters[idx] = SaturatingCounter(self.counter_bits, value)
            elif counter.value != value:
                counter.value = value
        self._populated = populated


class TaggedTable:
    """One PHR-indexed tagged component (Tables 1-3 in Figure 3)."""

    def __init__(
        self,
        history_doublets: int,
        sets: int = 512,
        ways: int = 4,
        counter_bits: int = 3,
        tag_bits: int = 11,
        pc_index_bit: int = 5,
    ):
        if sets & (sets - 1):
            raise ValueError(f"set count must be a power of two, got {sets}")
        self.history_doublets = history_doublets
        self.history_bits = 2 * history_doublets
        self.sets = sets
        self.ways = ways
        self.counter_bits = counter_bits
        self.tag_bits = tag_bits
        self.pc_index_bit = pc_index_bit
        self._sets: List[List[TaggedEntry]] = [[] for _ in range(sets)]
        #: Indices of non-empty sets (for sparse snapshot/restore); grown
        #: in :meth:`allocate`, cleared by :meth:`flush`/:meth:`restore`.
        self._populated: set = set()

        # ----- folded-history machinery ----------------------------------
        window = self.history_bits
        self._window_mask = mask(window)
        self._index_fold = compiled_fold(window, INDEX_BITS - 1)
        self._tag_fold = compiled_fold(window, tag_bits)
        self._tag_hi_fold = compiled_fold(max(window - 3, 1), tag_bits)
        # Fold cache: the folds of PHR value `_fold_value` (-1: none yet).
        # `_fold_tags` is filled lazily -- most probes of an empty set
        # never need the tag folds at all.
        self._fold_value = -1
        self._fold_index = 0
        self._fold_tags: Optional[Tuple[int, int]] = None
        self._pc_folds: dict = {}

    # ----- hashing -----------------------------------------------------------

    def _refold(self, value: int) -> None:
        """Recompute the index fold of PHR ``value`` and re-key the cache."""
        self._fold_value = value
        if value > self._window_mask:
            value &= self._window_mask
        self._fold_index = self._index_fold(value)
        self._fold_tags = None

    def _tag_folds(self, phr: PathHistoryRegister) -> Tuple[int, int]:
        """The two folded tag registers, computing them on first use."""
        if phr._value != self._fold_value:
            self._refold(phr._value)
        tags = self._fold_tags
        if tags is None:
            tags = self._refold_tags()
        return tags

    def _refold_tags(self) -> Tuple[int, int]:
        """Scratch-compute the tag folds of the cached PHR value."""
        window = self._fold_value & self._window_mask
        tags = (self._tag_fold(window), self._tag_hi_fold(window >> 3))
        self._fold_tags = tags
        return tags

    def _pc_fold(self, pc: int) -> int:
        """Memoised fold of PC[15:0] into the tag width."""
        key = pc & 0xFFFF
        fold = self._pc_folds.get(key)
        if fold is None:
            fold = self._pc_folds[key] = fold_xor(key, 16, self.tag_bits)
        return fold

    def index(self, pc: int, phr: PathHistoryRegister) -> int:
        """9-bit set index: 8 folded history bits + one PC bit."""
        if phr._value != self._fold_value:
            self._refold(phr._value)
        return self._fold_index | (((pc >> self.pc_index_bit) & 1)
                                   << (INDEX_BITS - 1))

    def tag(self, pc: int, phr: PathHistoryRegister) -> int:
        """Tag over the PC low bits and the table's history window.

        A second, offset fold decorrelates the tag from the index so that
        index-aliasing histories rarely also tag-alias.
        """
        low, high = self._tag_folds(phr)
        return low ^ high ^ self._pc_fold(pc)

    # ----- reference hashes (the executable specification) ------------------

    def _reference_index(self, pc: int, phr: PathHistoryRegister) -> int:
        """:meth:`index` via the definitional chunk-loop fold."""
        history = phr.low_bits(self.history_bits)
        folded = fold_xor_reference(history, self.history_bits, INDEX_BITS - 1)
        return folded | (bit(pc, self.pc_index_bit) << (INDEX_BITS - 1))

    def _reference_tag(self, pc: int, phr: PathHistoryRegister) -> int:
        """:meth:`tag` via the definitional chunk-loop folds."""
        history = phr.low_bits(self.history_bits)
        history_fold = fold_xor_reference(history, self.history_bits,
                                          self.tag_bits)
        history_fold ^= fold_xor_reference(history >> 3,
                                           max(self.history_bits - 3, 1),
                                           self.tag_bits)
        pc_fold = fold_xor_reference(bits(pc, 15, 0), 16, self.tag_bits)
        return history_fold ^ pc_fold

    # ----- lookup / update -----------------------------------------------------

    def probe(
        self, pc: int, phr: PathHistoryRegister,
    ) -> Tuple[Optional[TaggedEntry], int, Optional[int]]:
        """One-pass lookup returning ``(entry, index, tag)``.

        The tag is computed only when the indexed set is occupied; a
        ``None`` tag means the probe missed on emptiness alone.  The
        ``(index, tag)`` pair is the reusable lookup key the CBP stashes
        in its :class:`~repro.cpu.cbp.Prediction` so the later update /
        allocate of the same branch never rehashes.
        """
        value = phr._value
        if value != self._fold_value:
            self._refold(value)
        index = self._fold_index | (((pc >> self.pc_index_bit) & 1)
                                    << (INDEX_BITS - 1))
        ways = self._sets[index]
        if not ways:
            return None, index, None
        tags = self._fold_tags
        if tags is None:
            tags = self._refold_tags()
        wanted = tags[0] ^ tags[1] ^ self._pc_fold(pc)
        for entry in ways:
            if entry.tag == wanted:
                return entry, index, wanted
        return None, index, wanted

    def lookup(self, pc: int, phr: PathHistoryRegister) -> Optional[TaggedEntry]:
        """Return the matching entry for ``(pc, phr)``, if present."""
        return self.probe(pc, phr)[0]

    def allocate(
        self,
        pc: int,
        phr: PathHistoryRegister,
        taken: bool,
        key: Optional[Tuple[int, Optional[int]]] = None,
    ) -> TaggedEntry:
        """Install a weak entry for ``(pc, phr)``, evicting if needed.

        ``key`` is an optional precomputed ``(index, tag)`` pair from a
        prior :meth:`probe` of the same ``(pc, phr)`` (the tag half may be
        ``None``); passing it skips the rehash.

        If a way with the same tag already lives in the set, that entry is
        re-seeded in place -- weak counter toward ``taken``, usefulness
        cleared -- rather than installing a duplicate.  A duplicate would
        make :meth:`populated_entries` double-count and leave lookup and
        update racing between the two copies.

        Otherwise the victim is the least-useful way; surviving ways have
        their usefulness decayed, the standard TAGE anti-ping-pong measure.
        """
        if key is not None:
            index, tag = key
            if tag is None:
                tag = self.tag(pc, phr)
        else:
            index = self.index(pc, phr)
            tag = self.tag(pc, phr)
        ways = self._sets[index]
        for existing in ways:
            if existing.tag == tag:
                existing.counter.reset_weak(taken)
                existing.useful = 0
                return existing
        entry = TaggedEntry(
            tag=tag,
            counter=SaturatingCounter.weak(self.counter_bits, taken),
        )
        self._populated.add(index)
        if len(ways) < self.ways:
            ways.append(entry)
            return entry
        victim_position = 0
        least_useful = ways[0].useful
        for position in range(1, len(ways)):
            useful = ways[position].useful
            if useful < least_useful:
                victim_position = position
                least_useful = useful
        for position, existing in enumerate(ways):
            if position != victim_position and existing.useful > 0:
                existing.useful -= 1
        ways[victim_position] = entry
        return entry

    def flush(self) -> None:
        """Drop all entries (mitigation experiments)."""
        self._sets = [[] for _ in range(self.sets)]
        self._populated.clear()

    def populated_entries(self) -> int:
        """Total live entries across all sets."""
        return sum(len(ways) for ways in self._sets)

    # ----- checkpointing ------------------------------------------------------

    def snapshot(self) -> dict:
        """Sparse checkpoint ``{set index: ((tag, counter, useful), ...)}``.

        Only non-empty sets are copied; the derived fold caches are not
        state (they re-key lazily off the PHR value).
        """
        sets = self._sets
        # Sorted for canonical bytes (see BasePredictor.snapshot).
        return {
            index: tuple((entry.tag, entry.counter.value, entry.useful)
                         for entry in sets[index])
            for index in sorted(self._populated)
        }

    def restore(self, snap: dict) -> None:
        """Restore a :meth:`snapshot` in O(live + changed) work.

        Sets that already match the checkpoint are left untouched
        (preserving entry object identity); only diverged sets are
        rebuilt, so a restore after light perturbation costs roughly the
        perturbation, not the full table.
        """
        sets = self._sets
        for index in self._populated - snap.keys():
            sets[index] = []
        counter_bits = self.counter_bits
        for index, wanted in snap.items():
            ways = sets[index]
            if len(ways) == len(wanted) and all(
                entry.tag == tag and entry.counter.value == value
                and entry.useful == useful
                for entry, (tag, value, useful) in zip(ways, wanted)
            ):
                continue
            sets[index] = [
                TaggedEntry(tag=tag,
                            counter=SaturatingCounter(counter_bits, value),
                            useful=useful)
                for tag, value, useful in wanted
            ]
        self._populated = set(snap)


# ----- array export / import --------------------------------------------
#
# The vectorized batch engine (repro.batch) holds predictor state as dense
# per-replica arrays.  These converters translate between the sparse
# snapshot formats above and that dense layout; they accept any indexable
# sequences (plain lists or numpy rows) so the batch engine can hand its
# array slices straight in.


def base_snapshot_to_dense(snap: dict, index_bits: int,
                           counter_bits: int) -> Tuple[list, list]:
    """Expand a :meth:`BasePredictor.snapshot` dict to dense arrays.

    Returns ``(values, populated)``, each of length ``2**index_bits``.
    Unpopulated slots carry the default (weakly not-taken) counter value
    so a dense consumer can treat "populated" as the only sparse fact.
    """
    size = 1 << index_bits
    default = (1 << (counter_bits - 1)) - 1
    values = [default] * size
    populated = [False] * size
    for index, value in snap.items():
        values[index] = int(value)
        populated[index] = True
    return values, populated


def base_snapshot_from_dense(values, populated) -> dict:
    """Inverse of :func:`base_snapshot_to_dense` (numpy rows welcome)."""
    return {
        index: int(values[index])
        for index, live in enumerate(populated) if live
    }


def table_snapshot_to_dense(snap: dict, sets: int,
                            ways: int) -> Tuple[list, list, list, list]:
    """Expand a :meth:`TaggedTable.snapshot` dict to dense arrays.

    Returns ``(tags, counters, useful, occupancy)``: three ``sets x ways``
    nested lists (zero-filled beyond each set's occupancy) plus the
    per-set occupancy vector.  Ways pack from position 0, mirroring the
    scalar table's append-order storage.
    """
    tags = [[0] * ways for _ in range(sets)]
    counters = [[0] * ways for _ in range(sets)]
    useful = [[0] * ways for _ in range(sets)]
    occupancy = [0] * sets
    for index, entries in snap.items():
        occupancy[index] = len(entries)
        for way, (tag, value, use) in enumerate(entries):
            tags[index][way] = int(tag)
            counters[index][way] = int(value)
            useful[index][way] = int(use)
    return tags, counters, useful, occupancy


def table_snapshot_from_dense(tags, counters, useful, occupancy) -> dict:
    """Inverse of :func:`table_snapshot_to_dense` (numpy rows welcome)."""
    snap = {}
    for index, occupied in enumerate(occupancy):
        occupied = int(occupied)
        if occupied:
            row_tags, row_counters, row_useful = (
                tags[index], counters[index], useful[index])
            snap[index] = tuple(
                (int(row_tags[way]), int(row_counters[way]),
                 int(row_useful[way]))
                for way in range(occupied)
            )
    return snap


def default_history_lengths(phr_capacity: int) -> Tuple[int, int, int]:
    """The geometric history window lengths for the three tagged tables.

    Alder/Raptor Lake use 34/66/194 doublets (Figure 3); for smaller PHRs
    (Skylake's 93) the longest table is capped at the PHR capacity.
    """
    return (
        min(34, phr_capacity),
        min(66, phr_capacity),
        phr_capacity,
    )
