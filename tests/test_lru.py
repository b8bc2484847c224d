"""The shared LRU map and cache counters (``repro.utils.lru``).

The replay engine, the snapshot store's memory tier and the trace cache
all bound their entries with :class:`LruCache`, so its recency and
eviction rules are pinned here once.
"""

from __future__ import annotations

import pytest

from repro.utils.lru import CacheStats, LruCache


def test_put_evicts_least_recent_and_reports_count():
    cache = LruCache(2)
    assert cache.put("a", 1) == 0
    assert cache.put("b", 2) == 0
    assert cache.put("c", 3) == 1
    assert list(cache) == ["b", "c"]
    assert "a" not in cache


def test_get_refreshes_and_peek_does_not():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert list(cache) == ["a", "b"]
    assert cache.get("a") == 1
    assert list(cache) == ["b", "a"]
    cache.put("c", 3)
    assert list(cache) == ["a", "c"]
    assert cache.get("b") is None and cache.peek("b") is None


def test_reput_refreshes_without_growing():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.put("a", 10) == 0
    assert list(cache) == ["b", "a"]
    assert cache.peek("a") == 10


def test_shrinking_capacity_then_trim_evicts_oldest():
    cache = LruCache(3)
    for key in "abc":
        cache.put(key, key)
    cache.capacity = 1
    assert cache.trim() == 2
    assert list(cache) == ["c"]
    cache.capacity = 0
    assert cache.put("d", "d") == 2
    assert list(cache) == []


def test_pop_and_clear():
    cache = LruCache(2)
    cache.put("a", 1)
    assert cache.pop("a") == 1
    assert cache.pop("a") is None
    cache.put("b", 2)
    cache.clear()
    assert list(cache) == []


def test_negative_capacity_rejected():
    with pytest.raises(ValueError, match="capacity"):
        LruCache(-1)


def test_cache_stats_rates_and_dict():
    stats = CacheStats(memory_hits=1, disk_hits=2, misses=1, divergences=1)
    assert stats.hits == 3
    assert stats.lookups == 4
    assert stats.hit_rate == 0.75
    data = stats.as_dict()
    assert data["hit_rate"] == 0.75
    assert set(data) == {
        "memory_hits", "disk_hits", "misses", "puts", "memory_evictions",
        "disk_evictions", "spills", "invalid_artifacts", "divergences",
        "hit_rate"}
    stats.reset()
    assert stats.lookups == 0 and stats.hit_rate == 0.0
