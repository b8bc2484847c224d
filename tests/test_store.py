"""The content-addressed snapshot store: both tiers, addressing, stats.

The store is the service layer's shared memory: checkpoints must come
back bit-identical from either tier, damaged artifacts must degrade to
misses (never wrong state), and content keys must separate everything
that could make two checkpoints differ.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Machine, RAPTOR_LAKE, SKYLAKE
from repro.isa.identity import (
    ContentKeyError,
    content_key,
    machine_digest,
    profile_digest,
    program_digest,
)
from repro.service.store import ARTIFACT_SUFFIX, SnapshotStore, StoreError
from repro.utils.lru import CacheStats
from repro.utils.rng import DeterministicRng

from conftest import build_counted_loop

from test_snapshot_serialize import _train


def _key(tag: str) -> str:
    return content_key("test", tag)


def _snapshot(seed: int = 0):
    machine = Machine(RAPTOR_LAKE)
    if seed:
        _train(machine, seed, branches=40)
    return machine.snapshot()


class TestContentKey:
    def test_deterministic_and_distinct(self):
        assert content_key("a", 1) == content_key("a", 1)
        assert content_key("a", 1) != content_key("a", 2)
        assert content_key("a", 1) != content_key("a", 1, None)

    def test_is_hex_digest(self):
        key = content_key("anything")
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_type_tags_separate_lookalikes(self):
        # "1", 1, 1.0 and True all render identically under str(); the
        # canonical form must keep them apart.
        keys = {content_key(v) for v in ("1", 1, 1.0, True)}
        assert len(keys) == 4

    def test_dict_order_is_canonical(self):
        assert (content_key({"a": 1, "b": 2})
                == content_key({"b": 2, "a": 1}))

    def test_nested_structures(self):
        assert (content_key(("x", (1, 2), {"k": b"\x00\xff"}))
                == content_key(("x", (1, 2), {"k": b"\x00\xff"})))
        assert (content_key(("x", (1, 2)))
                != content_key(("x", (2, 1))))

    def test_uncanonicalizable_values_raise(self):
        with pytest.raises(ContentKeyError, match="cannot canonicalize"):
            content_key(object())


class TestDigests:
    def test_profile_digest_covers_every_field(self):
        base = profile_digest(RAPTOR_LAKE)
        assert profile_digest(RAPTOR_LAKE) == base
        assert profile_digest(SKYLAKE) != base
        # Any single-field perturbation must change the digest.
        bumped = dataclasses.replace(
            RAPTOR_LAKE, phr_capacity=RAPTOR_LAKE.phr_capacity + 1)
        assert profile_digest(bumped) != base

    def test_program_digest_is_layout_identity(self):
        assert (program_digest(build_counted_loop(8))
                == program_digest(build_counted_loop(8)))
        assert (program_digest(build_counted_loop(8))
                != program_digest(build_counted_loop(9)))
        assert (program_digest(build_counted_loop(8))
                != program_digest(build_counted_loop(8, base=0x420000)))

    def test_machine_digest_separates_trained_states(self):
        fresh = Machine(RAPTOR_LAKE)
        assert machine_digest(fresh) == machine_digest(Machine(RAPTOR_LAKE))
        trained = Machine(RAPTOR_LAKE)
        _train(trained, seed=3, branches=10)
        assert machine_digest(trained) != machine_digest(fresh)


class TestMemoryTier:
    def test_put_get_round_trip(self):
        store = SnapshotStore()
        snapshot = _snapshot(seed=5)
        store.put(_key("a"), snapshot, meta={"n": 1})
        entry = store.get(_key("a"))
        assert entry is not None
        got, meta = entry
        assert got == snapshot
        assert meta == {"n": 1}
        assert store.stats.memory_hits == 1
        assert store.stats.puts == 1

    def test_miss_returns_none_and_counts(self):
        store = SnapshotStore()
        assert store.get(_key("missing")) is None
        assert store.stats.misses == 1
        assert store.stats.hit_rate == 0.0

    def test_contains_and_len(self):
        store = SnapshotStore()
        assert _key("a") not in store
        store.put(_key("a"), _snapshot())
        assert _key("a") in store
        assert len(store) == 1

    def test_lru_eviction_order(self):
        store = SnapshotStore(memory_entries=2)
        store.put(_key("a"), _snapshot())
        store.put(_key("b"), _snapshot())
        store.get(_key("a"))  # refresh a; b is now oldest
        store.put(_key("c"), _snapshot())
        assert store.get(_key("a")) is not None
        assert store.get(_key("b")) is None  # evicted, no disk tier
        assert store.stats.memory_evictions == 1

    def test_memory_only_eviction_is_a_real_drop(self):
        store = SnapshotStore(memory_entries=1)
        store.put(_key("a"), _snapshot())
        store.put(_key("b"), _snapshot())
        assert store.get(_key("a")) is None

    def test_clear_memory(self):
        store = SnapshotStore()
        store.put(_key("a"), _snapshot())
        store.clear()
        assert store.get(_key("a")) is None


class TestDiskTier:
    def test_artifact_written_through(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        store.put(_key("a"), _snapshot(seed=1), meta={"tag": "x"})
        files = list(tmp_path.glob(f"*{ARTIFACT_SUFFIX}"))
        assert len(files) == 1
        assert files[0].name == f"{_key('a')}{ARTIFACT_SUFFIX}"
        assert store.stats.spills == 1
        assert store.disk_bytes() == files[0].stat().st_size

    def test_disk_hit_after_memory_clear(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        snapshot = _snapshot(seed=7)
        store.put(_key("a"), snapshot, meta={"k": [1, 2]})
        store.clear()  # memory gone, disk artifact stays
        entry = store.get(_key("a"))
        assert entry is not None
        got, meta = entry
        assert got == snapshot
        assert meta == {"k": [1, 2]}
        assert store.stats.disk_hits == 1
        # The disk hit promoted the entry back into the memory tier.
        store.get(_key("a"))
        assert store.stats.memory_hits == 1

    def test_survives_store_restart(self, tmp_path):
        snapshot = _snapshot(seed=9)
        SnapshotStore(directory=tmp_path).put(_key("a"), snapshot)
        reborn = SnapshotStore(directory=tmp_path)
        entry = reborn.get(_key("a"))
        assert entry is not None and entry[0] == snapshot
        assert _key("a") in reborn
        assert len(reborn) == 1

    def test_restored_snapshot_is_bit_identical_to_live(self, tmp_path):
        machine = Machine(RAPTOR_LAKE)
        _train(machine, seed=11)
        live = machine.snapshot()
        store = SnapshotStore(directory=tmp_path)
        store.put(_key("a"), live)
        store.clear()
        restored, __ = store.get(_key("a"))
        assert restored == live
        clone = Machine(RAPTOR_LAKE)
        clone.restore(restored)
        assert clone.snapshot() == live

    def test_reput_of_existing_key_is_a_noop_on_disk(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        snapshot = _snapshot(seed=2)
        store.put(_key("a"), snapshot)
        before = (tmp_path / f"{_key('a')}{ARTIFACT_SUFFIX}").read_bytes()
        store.put(_key("a"), snapshot)
        after = (tmp_path / f"{_key('a')}{ARTIFACT_SUFFIX}").read_bytes()
        assert before == after
        assert store.stats.spills == 1  # second put spilled nothing
        assert store.stats.puts == 2

    def test_no_scratch_files_left_behind(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        for tag in ("a", "b", "c"):
            store.put(_key(tag), _snapshot())
        leftovers = [p for p in tmp_path.iterdir()
                     if not p.name.endswith(ARTIFACT_SUFFIX)]
        assert leftovers == []

    def test_concurrent_writer_scratch_file_is_not_consumed(self, tmp_path):
        """Each writer spills through a scratch file of its own.

        Two service threads putting the same key once shared the
        ``<key>.ckpt.tmp.<pid>`` scratch path, so one writer's
        ``os.replace`` could publish the file the other was still
        writing.  Plant that path as another writer's in-flight file: a
        put must leave it alone and publish its own bytes.
        """
        snapshot = _snapshot(seed=3)
        scratch = tmp_path / f"{_key('a')}{ARTIFACT_SUFFIX}.tmp.{os.getpid()}"
        scratch.write_bytes(b"another writer's half-written artifact")
        store = SnapshotStore(directory=tmp_path)
        store.put(_key("a"), snapshot)
        assert scratch.read_bytes() == (
            b"another writer's half-written artifact")
        store.clear()
        restored, __ = store.get(_key("a"))
        assert restored == snapshot
        assert store.stats.invalid_artifacts == 0

    def test_corrupt_artifact_is_quarantined(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        store.put(_key("a"), _snapshot(seed=4))
        store.clear()
        path = tmp_path / f"{_key('a')}{ARTIFACT_SUFFIX}"
        path.write_bytes(b"garbage that is not an artifact")
        assert store.get(_key("a")) is None
        assert store.stats.invalid_artifacts == 1
        assert store.stats.misses == 1
        assert not path.exists()
        assert path.with_suffix(path.suffix + ".corrupt").exists()

    def test_truncated_artifact_is_quarantined(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        store.put(_key("a"), _snapshot(seed=4))
        store.clear()
        path = tmp_path / f"{_key('a')}{ARTIFACT_SUFFIX}"
        path.write_bytes(path.read_bytes()[:10])
        assert store.get(_key("a")) is None
        assert store.stats.invalid_artifacts == 1

    def test_disk_budget_evicts_oldest_first(self, tmp_path):
        probe = SnapshotStore(directory=tmp_path)
        probe.put(_key("probe"), _snapshot())
        artifact_size = probe.disk_bytes()
        probe.clear(memory=True, disk=True)
        # Room for two artifacts, not three.
        store = SnapshotStore(directory=tmp_path,
                              disk_budget_bytes=int(artifact_size * 2.5))
        for index, tag in enumerate(("a", "b", "c")):
            store.put(_key(tag), _snapshot())
            # Distinct mtimes so oldest-first is well defined.
            path = tmp_path / f"{_key(tag)}{ARTIFACT_SUFFIX}"
            os.utime(path, (1000 + index, 1000 + index))
            store._trim_disk(protect=_key(tag))
        remaining = {p.name[:-len(ARTIFACT_SUFFIX)]
                     for p in tmp_path.glob(f"*{ARTIFACT_SUFFIX}")}
        assert _key("c") in remaining  # the protected newcomer survives
        assert _key("a") not in remaining  # the oldest went first
        assert store.stats.disk_evictions >= 1
        assert store.disk_bytes() <= store.disk_budget_bytes

    def test_puts_under_budget_list_the_directory_once(self, tmp_path,
                                                       monkeypatch):
        store = SnapshotStore(directory=tmp_path)
        listings = []
        listing = store._artifact_listing

        def counted():
            listings.append(1)
            return listing()

        monkeypatch.setattr(store, "_artifact_listing", counted)
        snapshot = _snapshot()
        for index in range(100):
            store.put(_key(f"k{index}"), snapshot)
        assert store.stats.spills == 100
        assert listings == []  # seeded at construction; each put is O(1)
        assert store._disk_total == store.disk_bytes()

    def test_concurrent_puts_keep_the_byte_total(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        snapshot = _snapshot()
        interval = sys.getswitchinterval()

        def put_many(worker):
            for index in range(25):
                store.put(_key(f"w{worker}-{index}"), snapshot)

        threads = [threading.Thread(target=put_many, args=(worker,))
                   for worker in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.stats.spills == 100
        assert store._disk_total == store.disk_bytes()

    def test_crossing_the_budget_counts_a_sharing_store(self, tmp_path):
        probe = SnapshotStore(directory=tmp_path)
        probe.put(_key("probe"), _snapshot())
        artifact_size = probe.disk_bytes()
        probe.clear(memory=True, disk=True)
        budget = int(artifact_size * 2.5)
        mine = SnapshotStore(directory=tmp_path, disk_budget_bytes=budget)
        other = SnapshotStore(directory=tmp_path, disk_budget_bytes=budget)
        for index, (store, tag) in enumerate(
                ((mine, "a"), (other, "b"), (mine, "c"), (mine, "d"))):
            store.put(_key(tag), _snapshot())
            path = tmp_path / f"{_key(tag)}{ARTIFACT_SUFFIX}"
            os.utime(path, (1000 + index, 1000 + index))
        # ``mine`` counted three of its own artifacts, crossed the
        # budget, and re-listed: the listing held ``other``'s too.
        remaining = {p.name[:-len(ARTIFACT_SUFFIX)]
                     for p in tmp_path.glob(f"*{ARTIFACT_SUFFIX}")}
        assert remaining == {_key("c"), _key("d")}
        assert mine.disk_bytes() <= budget

    def test_clear_disk_removes_artifacts(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        store.put(_key("a"), _snapshot())
        store.clear(memory=True, disk=True)
        assert list(tmp_path.glob(f"*{ARTIFACT_SUFFIX}")) == []
        assert len(store) == 0


class TestManifestAndStats:
    def test_manifest_shape(self, tmp_path):
        store = SnapshotStore(directory=tmp_path)
        store.put(_key("a"), _snapshot(), meta={"m": 1})
        store.get(_key("a"))
        store.get(_key("nope"))
        manifest = store.manifest()
        assert manifest["directory"] == str(tmp_path)
        assert manifest["memory_keys"] == [_key("a")]
        assert [a["key"] for a in manifest["disk_artifacts"]] == [_key("a")]
        assert manifest["disk_bytes"] > 0
        assert manifest["stats"]["memory_hits"] == 1
        assert manifest["stats"]["misses"] == 1
        assert manifest["stats"]["hit_rate"] == 0.5

    def test_stats_hit_rate_and_reset(self):
        stats = CacheStats(memory_hits=3, disk_hits=1, misses=4)
        assert stats.hits == 4
        assert stats.lookups == 8
        assert stats.hit_rate == 0.5
        stats.reset()
        assert stats.as_dict()["hit_rate"] == 0.0
        assert stats.lookups == 0


class TestValidation:
    def test_keys_must_be_content_digests(self):
        store = SnapshotStore()
        for bad in ("short", "Z" * 64, 123, content_key("x")[:-1] + "G"):
            with pytest.raises(StoreError, match="content digest"):
                store.get(bad)
        with pytest.raises(StoreError):
            store.put("not-a-key", _snapshot())

    def test_values_must_be_snapshots(self):
        store = SnapshotStore()
        with pytest.raises(StoreError, match="MachineSnapshot"):
            store.put(_key("a"), {"not": "a snapshot"})

    def test_budget_validation(self):
        with pytest.raises(StoreError):
            SnapshotStore(memory_entries=-1)
        with pytest.raises(StoreError):
            SnapshotStore(disk_budget_bytes=0)


class TestDiskTierProperty:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=120))
    @settings(max_examples=15, deadline=None)
    def test_disk_round_trip_is_bit_identical(self, seed, branches):
        """Any trained state survives the spill/restore cycle exactly."""
        import tempfile
        directory = tempfile.mkdtemp(prefix="repro-store-prop-")
        machine = Machine(RAPTOR_LAKE)
        _train(machine, seed, branches=branches)
        live = machine.snapshot()
        store = SnapshotStore(directory=directory)
        key = content_key("prop", seed, branches)
        store.put(key, live, meta={"seed": seed})
        store.clear()  # force the disk path
        restored, meta = store.get(key)
        try:
            assert restored == live
            assert meta == {"seed": seed}
        finally:
            import shutil
            shutil.rmtree(directory, ignore_errors=True)
