"""The lazy Flush+Reload sweep equals the eager one, bit for bit.

:meth:`DataCache.reload` answers the hit list from the sets that can
hold a probe line and owes the fills until the cache is read again
(ARCHITECTURE.md §2); :class:`repro.fuzz.twins.EagerDataCache` fills
every probe line at once.  Random operation sequences run through both,
and every return value, counter, snapshot, LRU order and
``cache_digest`` must match, and ``cache_digest`` must equal a
memo-free hash of the snapshot; then whole AES leaks run on a
production machine and on one carrying the eager cache.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.aes.trials import AesAttackSpec, build_attack
from repro.cpu.cache import DataCache, group_by_set
from repro.fuzz.twins import EagerDataCache
from repro.isa.identity import cache_digest, machine_digest

OPS = ("access", "flush", "flush_all", "reload", "restore_last",
       "restore_any", "snapshot", "contains", "counters", "populated",
       "access_resolved", "flush_resolved", "digest")


@st.composite
def scenarios(draw):
    sets = draw(st.sampled_from((1, 2, 4, 8, 16)))
    ways = draw(st.integers(1, 4))
    stride = draw(st.sampled_from((64, 128, 4096)))
    entries = draw(st.integers(1, 48))
    strays = draw(st.lists(st.integers(0, 1 << 18), max_size=8))
    ops = draw(st.lists(st.tuples(st.sampled_from(OPS),
                                  st.integers(0, 1 << 16)),
                        min_size=1, max_size=80))
    # Digesting applies a pending fill, so half the scenarios digest
    # after every op and half leave pending fills to the next op.
    digest_each_op = draw(st.booleans())
    return (sets, ways, stride, entries, [s * 64 for s in strays], ops,
            digest_each_op)


def _memo_free_digest(cache) -> str:
    """:func:`cache_digest`'s hash of ``cache.snapshot()``, with no memo."""
    lines, hits, misses = cache.snapshot()
    digest = hashlib.sha256(f"{hits}:{misses};".encode("utf-8"))
    for index in sorted(lines):
        digest.update(f"{index}={lines[index]};".encode("utf-8"))
    return digest.hexdigest()


def _step(cache, op, arg, probe, addresses, snapshots):
    """Apply one operation; return what it observed."""
    resolved, groups = probe
    if op == "access":
        return cache.access(addresses[arg % len(addresses)])
    if op == "flush":
        return cache.flush(addresses[arg % len(addresses)])
    if op == "flush_all":
        return cache.flush_all()
    if op == "reload":
        return cache.reload(resolved, groups)
    if op in ("restore_last", "restore_any"):
        if not snapshots:
            return None
        pick = -1 if op == "restore_last" else arg % len(snapshots)
        return cache.restore(snapshots[pick])
    if op == "snapshot":
        snapshots.append(cache.snapshot())
        return snapshots[-1]
    if op == "contains":
        return cache.contains(addresses[arg % len(addresses)])
    if op == "counters":
        return cache.hits, cache.misses
    if op == "populated":
        return cache.populated_lines()
    if op == "access_resolved":
        return cache.access_resolved(resolved[:arg % (len(resolved) + 1)])
    if op == "flush_resolved":
        return cache.flush_resolved(resolved[:arg % (len(resolved) + 1)])
    return cache_digest(cache)


@settings(max_examples=400, deadline=None)
@given(scenarios())
def test_lazy_reload_matches_eager(scenario):
    sets, ways, stride, entries, strays, ops, digest_each_op = scenario
    lazy = DataCache(sets=sets, ways=ways)
    eager = EagerDataCache(sets=sets, ways=ways)
    base = 0x2000_0000
    probes = [base + index * stride for index in range(entries)]
    resolved = tuple(lazy.resolve_lines(probes))
    probe = (resolved, group_by_set(resolved))
    addresses = probes + [base + stray for stray in strays]
    lazy_snaps, eager_snaps = [], []
    for step, (op, arg) in enumerate(ops):
        got = _step(lazy, op, arg, probe, addresses, lazy_snaps)
        want = _step(eager, op, arg, probe, addresses, eager_snaps)
        assert got == want, (step, op)
        assert ((lazy.hits, lazy.misses)
                == (eager.hits, eager.misses)), (step, op)
        if digest_each_op:
            for cache in (lazy, eager):
                assert (cache_digest(cache)
                        == _memo_free_digest(cache)), (step, op)
    assert lazy.snapshot() == eager.snapshot()
    assert lazy._sets == eager._sets
    assert cache_digest(lazy) == cache_digest(eager)


def test_reload_after_restore_writes_no_set():
    """Restore, touch one probe line, reload: the sweep leaves nothing
    for the next restore to rewrite, and the hit list is exact."""
    cache = DataCache()
    resolved = tuple(cache.resolve_lines(0x2000_0000 + index * 4096
                                         for index in range(4096)))
    groups = group_by_set(resolved)
    snap = cache.snapshot()
    cache.restore(snap)
    cache.access(0x2000_0000 + 77 * 4096)
    assert cache.reload(resolved, groups) == [77]
    assert cache._dirty == {resolved[77][1]}
    assert (cache.hits, cache.misses) == (1, 4096)
    cache.restore(snap)
    assert cache.populated_lines() == 0


@pytest.mark.parametrize("entry_point", [
    lambda cache, resolved, groups: cache.access(0x2000_0000 + 3 * 4096),
    lambda cache, resolved, groups: cache.access_resolved(resolved[:5]),
    lambda cache, resolved, groups: cache.reload(resolved, groups),
    lambda cache, resolved, groups: cache.flush(0x2000_0000),
    lambda cache, resolved, groups: cache.flush_resolved(resolved[:5]),
    lambda cache, resolved, groups: cache.flush_all(),
], ids=["access", "access_resolved", "reload", "flush", "flush_resolved",
        "flush_all"])
def test_digest_after_restore_never_goes_stale(entry_point):
    """The restore-source memo serves the restored snapshot's digest
    only until the next state change, whichever entry point makes it."""
    cache = DataCache(sets=16, ways=4)
    resolved = tuple(cache.resolve_lines(0x2000_0000 + index * 4096
                                         for index in range(64)))
    groups = group_by_set(resolved)
    for index in (0, 1, 2, 40):
        cache.access(0x2000_0000 + index * 4096)
    snap = cache.snapshot()
    cache.restore(snap)
    pristine = cache_digest(cache)
    assert pristine == _memo_free_digest(cache)
    for _ in range(2):
        cache.restore(snap)
        assert cache.restored_from() is snap
        assert cache_digest(cache) == pristine
        entry_point(cache, resolved, groups)
        assert cache.restored_from() is None
        after = cache_digest(cache)
        assert after == _memo_free_digest(cache)
        assert after != pristine


def _eager_machine_attack(key: bytes):
    attack = build_attack(AesAttackSpec(key=key))
    lazy_cache = attack.machine.cache
    eager = EagerDataCache(sets=lazy_cache.sets, ways=lazy_cache.ways,
                           line_size=lazy_cache.line_size,
                           hit_latency=lazy_cache.hit_latency,
                           miss_latency=lazy_cache.miss_latency)
    eager.restore(lazy_cache.snapshot())
    attack.machine.cache = eager
    return attack


def test_aes_leaks_match_on_eager_cache():
    """Checkpointed leaks, and live leaks that start on the cache a
    reload left behind (the retry path), match leak for leak."""
    key = bytes(range(0x40, 0x50))
    attacks = (build_attack(AesAttackSpec(key=key)),
               _eager_machine_attack(key))
    plaintexts = [bytes((seed * 37 + index) & 0xFF for index in range(16))
                  for seed in range(4)]
    for plaintext in plaintexts:
        for from_checkpoint in (True, False, False):
            leaks = [attack.leak_reduced_round(
                plaintext, 1, from_checkpoint=from_checkpoint)
                for attack in attacks]
            assert leaks[0] == leaks[1]
            assert (machine_digest(attacks[0].machine)
                    == machine_digest(attacks[1].machine))
