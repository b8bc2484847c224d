"""Every state change reaches the machine digest, and dirty-set restores.

No component counts its mutations: :func:`repro.isa.identity.machine_digest`
hashes the snapshot on every call, so a state change can only be missed
if the snapshot does not carry it -- every test in the first half
mutates through a different entry point and checks the digest moves.
The second half pins the dirty-set restores of the cache and the BTB
against cold restores.
"""

from __future__ import annotations

import pytest

from repro.cpu.btb import BranchTargetBuffer
from repro.cpu.cache import DataCache
from repro.cpu.config import RAPTOR_LAKE
from repro.cpu.machine import Machine
from repro.isa.identity import machine_digest


# ----------------------------------------------------------------------
# machine_digest covers every entry point
# ----------------------------------------------------------------------

def _warm_machine():
    """A machine with a cache line, a BTB entry and an IBP entry, so
    every flush below has something to evict."""
    machine = Machine(RAPTOR_LAKE)
    machine.cache.access(0x40_0000)
    machine.btb.update(0x4000, 0x5000)
    machine.ibp.update(0x4000, machine.phr(), 0x6000)
    return machine


@pytest.mark.parametrize("mutate", [
    lambda m: m.cache.access(0x40_1000),
    lambda m: m.cache.flush(0x40_0000),
    lambda m: m.cache.flush_all(),
    lambda m: m.btb.update(0x4100, 0x5000),
    lambda m: m.btb.flush(),
    lambda m: m.btb.predict(0x4000),
    lambda m: m.ibp.flush(),
], ids=["cache-access", "cache-flush", "cache-flush-all", "btb-update",
        "btb-flush", "btb-predict", "ibp-flush"])
def test_every_mutation_entry_point_moves_the_digest(mutate):
    machine = _warm_machine()
    before = machine_digest(machine)
    assert machine_digest(machine) == before  # digesting does not mutate
    mutate(machine)
    assert machine_digest(machine) != before


# ----------------------------------------------------------------------
# dirty-set restores
# ----------------------------------------------------------------------

def _fill_cache(cache, seed, count=30):
    for i in range(count):
        cache.access((seed * 0x1_0000 + i) * cache.line_size)


def test_cache_dirty_restore_matches_full_restore():
    """Fast-path restore (same snapshot object) equals a cold restore."""
    cache = DataCache(sets=64, ways=4)
    _fill_cache(cache, seed=1)
    snap = cache.snapshot()

    reference = DataCache(sets=64, ways=4)
    reference.restore(snap)

    # Consecutive restores from the same snapshot: mutate, restore,
    # compare against the cold-restored twin every round.
    for round_number in range(4):
        cache.restore(snap)
        assert cache.snapshot() == reference.snapshot(), round_number
        _fill_cache(cache, seed=100 + round_number, count=12)
        cache.flush(0x1_0000 * cache.line_size)


def test_cache_restore_from_new_snapshot_rescans_everything():
    """Switching snapshot objects must not trust the old dirty set."""
    cache = DataCache(sets=64, ways=4)
    _fill_cache(cache, seed=1)
    snap_a = cache.snapshot()
    cache.restore(snap_a)

    _fill_cache(cache, seed=2)
    snap_b = cache.snapshot()
    cache.restore(snap_a)       # dirty now relative to snap_a
    cache.restore(snap_b)       # different object: full rescan

    reference = DataCache(sets=64, ways=4)
    reference.restore(snap_b)
    assert cache.snapshot() == reference.snapshot()


def test_cache_flush_all_invalidates_dirty_tracking():
    cache = DataCache(sets=64, ways=4)
    _fill_cache(cache, seed=3)
    snap = cache.snapshot()
    cache.restore(snap)
    cache.flush_all()           # wipes sets without touching _dirty per set
    cache.restore(snap)
    reference = DataCache(sets=64, ways=4)
    reference.restore(snap)
    assert cache.snapshot() == reference.snapshot()


def _fill_btb(btb, seed, count=30):
    for i in range(count):
        btb.update(seed * 0x1_0000 + i * 32, 0x9000 + i)


def test_btb_dirty_restore_matches_full_restore():
    btb = BranchTargetBuffer(sets=64, ways=4)
    _fill_btb(btb, seed=1)
    snap = btb.snapshot()

    reference = BranchTargetBuffer(sets=64, ways=4)
    reference.restore(snap)

    for round_number in range(4):
        btb.restore(snap)
        assert btb.snapshot() == reference.snapshot(), round_number
        _fill_btb(btb, seed=50 + round_number, count=10)
        btb.predict(0x1_0000 + 32)  # LRU move is snapshot-visible


def test_btb_flush_invalidates_dirty_tracking():
    btb = BranchTargetBuffer(sets=64, ways=4)
    _fill_btb(btb, seed=5)
    snap = btb.snapshot()
    btb.restore(snap)
    btb.flush()
    btb.restore(snap)
    reference = BranchTargetBuffer(sets=64, ways=4)
    reference.restore(snap)
    assert btb.snapshot() == reference.snapshot()


def test_batched_cache_ops_mark_dirty_sets():
    """access_resolved / flush_resolved restores stay exact."""
    cache = DataCache(sets=64, ways=4)
    snap = cache.snapshot()
    cache.restore(snap)

    addresses = [i * cache.line_size * 7 for i in range(20)]
    resolved = cache.resolve_lines(addresses)
    cache.access_resolved(resolved)
    cache.flush_resolved(resolved[:5])
    cache.restore(snap)

    reference = DataCache(sets=64, ways=4)
    reference.restore(snap)
    assert cache.snapshot() == reference.snapshot()
