"""Additional covert-channel coverage: reload timing semantics."""

from dataclasses import replace

from repro.channels.flush_reload import FlushReloadChannel
from repro.cpu import Machine, RAPTOR_LAKE


class TestReloadTiming:
    def test_reload_times_distinguish_hot_and_cold(self):
        machine = Machine(RAPTOR_LAKE)
        channel = FlushReloadChannel(machine, entries=32)
        channel.flush()
        machine.cache.access(channel.slot_address(9))
        times = channel.reload_times()
        threshold = machine.config.reload_threshold
        assert times[9] < threshold
        assert all(t >= threshold for i, t in enumerate(times) if i != 9)

    def test_flush_is_idempotent(self):
        machine = Machine(RAPTOR_LAKE)
        channel = FlushReloadChannel(machine, entries=16)
        channel.flush()
        channel.flush()
        assert channel.hot_slots() == []

    def test_channel_does_not_self_interfere(self):
        """A full probe array survives its own reload pass (the hashed
        cache-index design requirement)."""
        machine = Machine(RAPTOR_LAKE)
        channel = FlushReloadChannel(machine, entries=4096)
        channel.flush()
        for index in range(0, 4096, 64):
            machine.cache.access(channel.slot_address(index))
        hot = channel.hot_slots()
        expected = list(range(0, 4096, 64))
        missing = [i for i in expected if i not in hot]
        assert len(missing) <= len(expected) // 10

    def test_receive_byte_after_flush_cycle(self):
        machine = Machine(RAPTOR_LAKE)
        channel = FlushReloadChannel(machine, entries=256)
        for secret in (0, 127, 255):
            channel.flush()
            machine.cache.access(channel.slot_address(secret))
            assert channel.receive_byte() == secret


class TestSharedProbeGeometry:
    def test_channels_of_one_geometry_share_resolved_slots(self):
        first = FlushReloadChannel(Machine(RAPTOR_LAKE), entries=64)
        second = FlushReloadChannel(Machine(RAPTOR_LAKE), entries=64)
        assert first._resolved is second._resolved
        assert isinstance(first._resolved, tuple)
        other = FlushReloadChannel(Machine(RAPTOR_LAKE), entries=64,
                                   stride=8192)
        assert other._resolved is not first._resolved

    def test_smaller_cache_resolves_its_own_sets(self):
        small = Machine(replace(RAPTOR_LAKE, cache_sets=64))
        channel = FlushReloadChannel(small, entries=64)
        default = FlushReloadChannel(Machine(RAPTOR_LAKE), entries=64)
        assert channel._resolved is not default._resolved
        assert all(index < 64 for _, index in channel._resolved)
        channel.flush()
        small.cache.access(channel.slot_address(5))
        assert channel.receive_byte() == 5
