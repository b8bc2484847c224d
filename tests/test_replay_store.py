"""Replay-engine stats accounting and shared-store integration.

The engine's counters feed the service benchmarks (hit_rate is the
number the load generator gates on), and the store wiring is what lets
two engines -- two workers, two requests, two processes -- share one
prefix build.  Both must be exact: a miscounted pin or an unsound
content key silently corrupts the perf story or, worse, the results.
"""

from __future__ import annotations

import pytest

from repro.cpu import Machine, RAPTOR_LAKE
from repro.isa.identity import content_key
from repro.replay import ReplayEngine, ReplayError, ReplayStats
from repro.service.store import SnapshotStore

from test_replay import make_builder, phr_of

SCOPE = ("test-scope", "victim-v1")


class TestStatsAccounting:
    def test_capture_pins_are_counted(self):
        """Regression: capture()/adopt() events show up in stats.pins.

        The AES bench reports pinned-checkpoint pressure through this
        counter; it silently reading 0 would hide every capture from
        the accounting.
        """
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        assert engine.stats.pins == 0
        machine.observe_conditional(0x1000, 0x2000, True)
        engine.capture("c1")
        assert engine.stats.pins == 1
        engine.adopt("c2", machine.snapshot())
        assert engine.stats.pins == 2
        # Pin events are never decremented, even when the pin is freed.
        engine.invalidate("c1")
        assert engine.stats.pins == 2
        engine.capture("c1-again")
        assert engine.stats.pins == 3

    def test_hit_rate_counts_store_hits_as_hits(self):
        stats = ReplayStats(checkpoint_hits=2, checkpoint_misses=2,
                            store_hits=1)
        # 2 local hits + 1 store-served miss over 4 lookups.
        assert stats.hit_rate == 0.75

    def test_hit_rate_zero_before_any_lookup(self):
        assert ReplayStats().hit_rate == 0.0

    def test_reset_zeroes_counters_but_keeps_snapshots(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        calls = []
        key = engine.checkpoint("p", make_builder(machine, 0x1000, 0x2000,
                                                  calls))
        engine.evaluate(key, lambda: None)
        assert engine.stats.prefix_runs == 1
        engine.stats.reset()
        assert all(v == 0 for v in engine.stats.as_dict().values())
        # The cached snapshot survived the reset: no rebuild, one hit.
        engine.evaluate(key, lambda: None)
        assert calls == [0x1000]
        assert engine.stats.checkpoint_hits == 1
        assert engine.stats.prefix_runs == 0

    def test_as_dict_covers_every_counter(self):
        expected = {"prefix_runs", "suffix_runs", "checkpoint_hits",
                    "checkpoint_misses", "restores", "evictions", "pins",
                    "store_hits", "store_misses"}
        assert set(ReplayStats().as_dict()) == expected


class TestStoreWiring:
    def test_store_requires_scope(self):
        machine = Machine(RAPTOR_LAKE)
        with pytest.raises(ReplayError, match="store_scope"):
            ReplayEngine(machine, store=SnapshotStore())

    def test_second_engine_served_from_store(self):
        """The cross-request path: engine B never runs A's builder."""
        store = SnapshotStore()
        m1 = Machine(RAPTOR_LAKE)
        e1 = ReplayEngine(m1, store=store, store_scope=SCOPE)
        calls1 = []
        e1.checkpoint("p", make_builder(m1, 0x1000, 0x2000, calls1))
        expected = phr_of(m1)
        assert calls1 == [0x1000]
        assert e1.stats.store_misses == 1  # consulted before building

        m2 = Machine(RAPTOR_LAKE)
        e2 = ReplayEngine(m2, store=store, store_scope=SCOPE)
        calls2 = []
        e2.checkpoint("p", make_builder(m2, 0x1000, 0x2000, calls2))
        assert calls2 == []  # the store served the state
        assert phr_of(m2) == expected
        assert e2.stats.store_hits == 1
        assert e2.stats.prefix_runs == 0
        assert m2.snapshot() == m1.snapshot()

    def test_different_scopes_do_not_share(self):
        store = SnapshotStore()
        m1 = Machine(RAPTOR_LAKE)
        e1 = ReplayEngine(m1, store=store, store_scope=("scope", "a"))
        e1.checkpoint("p", make_builder(m1, 0x1000, 0x2000, []))

        m2 = Machine(RAPTOR_LAKE)
        e2 = ReplayEngine(m2, store=store, store_scope=("scope", "b"))
        calls = []
        e2.checkpoint("p", make_builder(m2, 0x1000, 0x2000, calls))
        assert calls == [0x1000]  # scope b built its own state
        assert e2.stats.store_hits == 0

    def test_chained_keys_have_chained_content(self):
        store = SnapshotStore()
        m1 = Machine(RAPTOR_LAKE)
        e1 = ReplayEngine(m1, store=store, store_scope=SCOPE)
        e1.checkpoint("p", make_builder(m1, 0x1000, 0x2000, []))
        e1.checkpoint("q", make_builder(m1, 0x3000, 0x4000, []),
                      parent="p")
        deep = phr_of(m1)

        m2 = Machine(RAPTOR_LAKE)
        e2 = ReplayEngine(m2, store=store, store_scope=SCOPE)
        calls = []
        e2.checkpoint("p", make_builder(m2, 0x1000, 0x2000, calls))
        e2.checkpoint("q", make_builder(m2, 0x3000, 0x4000, calls),
                      parent="p")
        assert calls == []  # both levels came from the store
        assert phr_of(m2) == deep
        assert e2.stats.store_hits == 2

    def test_capture_descendants_have_no_content_identity(self):
        """States downstream of a capture must never be published.

        A capture's state is not a function of the declared chain, so a
        content address for its descendants would collide across
        engines whose captures differ.
        """
        store = SnapshotStore()
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine, store=store, store_scope=SCOPE)
        machine.observe_conditional(0x9000, 0xA000, True)
        engine.capture("cap")
        engine.checkpoint("child", make_builder(machine, 0x1000, 0x2000,
                                                []), parent="cap")
        assert engine._content_key("cap") is None
        assert engine._content_key("child") is None
        assert len(store) == 0  # nothing was published
        assert store.stats.puts == 0

    def test_uncanonicalizable_keys_degrade_to_no_store(self):
        store = SnapshotStore()
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine, store=store, store_scope=SCOPE)
        calls = []
        # An object() key has no canonical form; the engine must still
        # work, just without cross-engine sharing for that key.
        key = object()
        engine.checkpoint(key, make_builder(machine, 0x1000, 0x2000,
                                            calls))
        assert calls == [0x1000]
        assert engine._content_key(key) is None
        assert len(store) == 0

    def test_adopted_store_snapshot_round_trips_through_engine(self):
        store = SnapshotStore()
        m1 = Machine(RAPTOR_LAKE)
        m1.observe_conditional(0x1000, 0x2000, True)
        key = content_key("adopt-test")
        store.put(key, m1.snapshot())

        m2 = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(m2)
        snapshot, __ = store.get(key)
        engine.adopt("warm", snapshot)
        assert engine.evaluate("warm", lambda: m2.snapshot()) \
            == m1.snapshot()

    def test_store_survives_engine_eviction(self):
        """An evicted local snapshot comes back from the store, not a
        rebuild."""
        store = SnapshotStore()
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine, store=store, store_scope=SCOPE,
                              capacity=1)
        calls = []
        engine.checkpoint("p", make_builder(machine, 0x1000, 0x2000,
                                            calls))
        engine.checkpoint("q", make_builder(machine, 0x3000, 0x4000,
                                            calls))  # evicts p locally
        assert engine.stats.evictions >= 1
        engine.evaluate("p", lambda: None)
        assert calls == [0x1000, 0x3000]  # p was not rebuilt
        assert engine.stats.store_hits >= 1
