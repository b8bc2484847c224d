"""Mutation epochs, digest memoization, and dirty-set restores.

The ISSUE 8 perf layer under the trace cache: every stateful component
counts its mutations, :attr:`Machine.state_epoch` aggregates them, and
:func:`repro.isa.identity.machine_digest` memoizes against the epoch.
Correctness bar: a memo must *never* survive a state change -- every
test here mutates through a different entry point and checks the
derived value moves.
"""

from __future__ import annotations

import pytest

from repro.cpu.btb import BranchTargetBuffer
from repro.cpu.cache import DataCache
from repro.cpu.config import RAPTOR_LAKE
from repro.cpu.machine import Machine
from repro.isa.identity import machine_digest


# ----------------------------------------------------------------------
# machine_digest memoization
# ----------------------------------------------------------------------

def test_machine_digest_is_memoized_until_mutation():
    machine = Machine(RAPTOR_LAKE)
    first = machine_digest(machine)
    epoch = machine.state_epoch
    assert machine_digest(machine) == first
    assert machine.state_epoch == epoch  # digesting does not mutate

    machine.observe_conditional(0x4000, 0x4100, True)
    assert machine.state_epoch != epoch
    assert machine_digest(machine) != first


@pytest.mark.parametrize("mutate", [
    lambda m: m.cache.access(0x40_0000),
    lambda m: m.cache.flush(0x40_0000),
    lambda m: m.cache.flush_all(),
    lambda m: m.btb.update(0x4000, 0x5000),
    lambda m: m.btb.flush(),
    lambda m: m.btb.predict(0x4000),
    lambda m: m.ibp.flush(),
    lambda m: m.touch(),
], ids=["cache-access", "cache-flush", "cache-flush-all", "btb-update",
        "btb-flush", "btb-predict", "ibp-flush", "touch"])
def test_every_mutation_entry_point_moves_the_epoch(mutate):
    machine = Machine(RAPTOR_LAKE)
    epoch = machine.state_epoch
    mutate(machine)
    assert machine.state_epoch != epoch


def test_restore_moves_the_epoch_even_to_identical_state():
    """The epoch is an identity token, not a content hash."""
    machine = Machine(RAPTOR_LAKE)
    snap = machine.snapshot()
    epoch = machine.state_epoch
    machine.restore(snap)
    assert machine.state_epoch != epoch
    # ... but the digest of the restored state is content-equal.
    fresh = Machine(RAPTOR_LAKE)
    assert machine_digest(machine) == machine_digest(fresh)


def test_swapped_predictor_disables_memoization():
    """A cbp without a mutation counter degrades to recompute, not stale."""
    machine = Machine(RAPTOR_LAKE)

    class Opaque:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            if name == "mutations":
                raise AttributeError(name)
            return getattr(self._inner, name)

    machine.cbp = Opaque(machine.cbp)
    assert machine.state_epoch is None
    # Still digestable -- just not memoized.
    assert machine_digest(machine) == machine_digest(machine)


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
