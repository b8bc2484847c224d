"""Tests for the prefix-replay engine (:mod:`repro.replay`)."""

import pytest

from repro.cpu import Machine, RAPTOR_LAKE
from repro.fuzz.twins import NaiveReplayEngine
from repro.replay import ReplayEngine, ReplayError


def make_builder(machine, pc, target, calls):
    """A deterministic prefix: one taken conditional observation."""
    def build():
        calls.append(pc)
        machine.observe_conditional(pc, target, True)
    return build


def phr_of(machine):
    return machine.phr(0).value


class TestEstablish:
    def test_root_restores_construction_state(self):
        machine = Machine(RAPTOR_LAKE)
        machine.observe_conditional(0x1000, 0x2000, True)
        initial = phr_of(machine)
        engine = ReplayEngine(machine)
        machine.observe_conditional(0x3000, 0x4000, True)
        assert phr_of(machine) != initial
        value = engine.evaluate(ReplayEngine.ROOT, lambda: phr_of(machine))
        assert value == initial

    def test_checkpoint_builds_once_then_restores(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        calls = []
        key = engine.checkpoint("p", make_builder(machine, 0x1000, 0x2000,
                                                  calls))
        expected = phr_of(machine)
        for _ in range(3):
            machine.observe_conditional(0x5000, 0x6000, True)  # drift away
            assert engine.evaluate(key, lambda: phr_of(machine)) == expected
        assert calls == [0x1000]
        assert engine.stats.prefix_runs == 1
        assert engine.stats.checkpoint_hits == 3
        assert engine.stats.suffix_runs == 3

    def test_reuse_none_reruns_builder_chain(self):
        machine = Machine(RAPTOR_LAKE)
        engine = NaiveReplayEngine(machine)
        calls = []
        key = engine.checkpoint("p", make_builder(machine, 0x1000, 0x2000,
                                                  calls))
        expected = phr_of(machine)
        for _ in range(3):
            assert engine.evaluate(key, lambda: phr_of(machine)) == expected
        # Once at declaration, once per evaluation.
        assert calls == [0x1000] * 4
        assert engine.stats.checkpoint_hits == 0

    def test_chained_checkpoints_compose(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        parent = engine.checkpoint("a", make_builder(machine, 0x1000,
                                                     0x2000, []))
        after_a = phr_of(machine)
        child = engine.checkpoint("b", make_builder(machine, 0x3000,
                                                    0x4000, []),
                                  parent=parent)
        after_b = phr_of(machine)
        assert after_b != after_a
        assert engine.evaluate(parent, lambda: phr_of(machine)) == after_a
        assert engine.evaluate(child, lambda: phr_of(machine)) == after_b
        assert engine.depth_of(parent) == 0
        assert engine.depth_of(child) == 1
        assert engine.depth_of(ReplayEngine.ROOT) == -1

    def test_reuse_policies_bit_identical(self):
        results = {}
        for reuse, engine_class in (("checkpoint", ReplayEngine),
                                    ("none", NaiveReplayEngine)):
            machine = Machine(RAPTOR_LAKE)
            engine = engine_class(machine)
            engine.checkpoint("p", make_builder(machine, 0x1000, 0x2000, []))
            seen = []
            for i in range(4):
                def suffix(i=i):
                    missed = machine.observe_conditional(
                        0x7000 + 0x40 * i, 0x8000, i % 2 == 0)
                    return (missed, phr_of(machine))
                seen.append(engine.evaluate("p", suffix))
            results[reuse] = seen
        assert results["checkpoint"] == results["none"]


class TestCacheManagement:
    def test_lru_eviction_rebuilds_transparently(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine, capacity=1)
        calls = []
        engine.checkpoint("a", make_builder(machine, 0x1000, 0x2000, calls))
        value_a = engine.evaluate("a", lambda: phr_of(machine))
        engine.checkpoint("b", make_builder(machine, 0x3000, 0x4000, calls))
        assert engine.cached_keys() == ("b",)
        assert engine.stats.evictions == 1
        # Evicted checkpoints rebuild (and re-cache) on demand.
        assert engine.evaluate("a", lambda: phr_of(machine)) == value_a
        assert calls.count(0x1000) == 2
        assert engine.cached_keys() == ("a",)

    def test_invalidate_drops_descendants(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        calls = []
        engine.checkpoint("a", make_builder(machine, 0x1000, 0x2000, calls))
        engine.checkpoint("b", make_builder(machine, 0x3000, 0x4000, calls),
                          parent="a")
        value_b = engine.evaluate("b", lambda: phr_of(machine))
        engine.invalidate("a")
        assert engine.cached_keys() == ()
        # Declarations survive: the chain re-runs root -> a -> b.
        assert engine.evaluate("b", lambda: phr_of(machine)) == value_b
        assert calls == [0x1000, 0x3000, 0x1000, 0x3000]


class TestCapture:
    def test_capture_adopts_live_state(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        machine.observe_conditional(0x1000, 0x2000, True)
        captured = phr_of(machine)
        engine.capture("live")
        machine.observe_conditional(0x3000, 0x4000, True)
        assert engine.evaluate("live", lambda: phr_of(machine)) == captured

    def test_capture_survives_lru_pressure(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine, capacity=1)
        machine.observe_conditional(0x1000, 0x2000, True)
        captured = phr_of(machine)
        engine.capture("pin")
        engine.checkpoint("a", make_builder(machine, 0x3000, 0x4000, []))
        engine.checkpoint("b", make_builder(machine, 0x5000, 0x6000, []))
        assert engine.evaluate("pin", lambda: phr_of(machine)) == captured

    def test_invalidate_frees_captured_keys(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        engine.capture("live")
        assert "live" in engine
        engine.invalidate()
        assert "live" not in engine
        engine.capture("live")  # re-capture is legal after invalidation
        with pytest.raises(ReplayError):
            engine.evaluate("gone", lambda: None)

    def test_capture_misuse_raises(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        engine.capture("once")
        with pytest.raises(ReplayError):
            engine.capture("once")
        with pytest.raises(ReplayError):
            engine.capture(ReplayEngine.ROOT)
        with pytest.raises(ReplayError):
            engine.capture("child", parent="missing")

    def test_capture_refuses_to_pin_past_capacity(self):
        """Pins fill the cache; the capacity+1'th capture must raise a
        clear :class:`ReplayError` rather than grow the cache unbounded
        or evict an unrecoverable pinned snapshot."""
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine, capacity=1)
        engine.capture("first")
        with pytest.raises(ReplayError, match="pinned"):
            engine.capture("second")
        # The failed capture must not leave a half-declared node behind.
        assert "second" not in engine
        # Freeing the pin makes the slot reusable.
        engine.invalidate("first")
        engine.capture("second")

    def test_pins_count_against_lru_budget(self):
        """A pin shrinks the LRU side immediately and keeps built
        checkpoints functional (uncached) when every slot is pinned."""
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine, capacity=2)
        calls = []
        engine.checkpoint("a", make_builder(machine, 0x1000, 0x2000, calls))
        engine.checkpoint("b", make_builder(machine, 0x3000, 0x4000, calls))
        assert engine.cached_keys() == ("a", "b")
        engine.capture("pin1")
        assert len(engine.cached_keys()) == 1  # trimmed at capture time
        engine.capture("pin2")
        assert engine.cached_keys() == ()
        # Fully pinned: built checkpoints still establish correctly,
        # they just re-run their builders every time instead of caching.
        value_a = engine.evaluate("a", lambda: phr_of(machine))
        assert engine.evaluate("a", lambda: phr_of(machine)) == value_a
        assert engine.cached_keys() == ()
        assert calls.count(0x1000) >= 3


class TestValidation:
    def test_capacity_validated(self):
        with pytest.raises(ReplayError):
            ReplayEngine(Machine(RAPTOR_LAKE), capacity=0)

    def test_unknown_keys_rejected(self):
        engine = ReplayEngine(Machine(RAPTOR_LAKE))
        with pytest.raises(ReplayError):
            engine.evaluate("nope", lambda: None)
        with pytest.raises(ReplayError):
            engine.depth_of("nope")
        with pytest.raises(ReplayError):
            engine.checkpoint("child", lambda: None, parent="nope")

    def test_redeclaring_with_new_parent_rejected(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        engine.checkpoint("a", lambda: None)
        engine.checkpoint("b", lambda: None)
        # Same parent: a no-op re-establish.
        engine.checkpoint("b", lambda: None)
        with pytest.raises(ReplayError):
            engine.checkpoint("b", lambda: None, parent="a")

    def test_evaluate_and_stats_dict(self):
        machine = Machine(RAPTOR_LAKE)
        engine = ReplayEngine(machine)
        key = engine.checkpoint("p", make_builder(machine, 0x1000, 0x2000,
                                                  []))
        values = [engine.evaluate(key, suffix)
                  for suffix in (lambda: 1, lambda: 2, lambda: 3)]
        assert values == [1, 2, 3]
        stats = engine.stats.as_dict()
        assert stats["suffix_runs"] == 3
        assert stats["prefix_runs"] == 1
