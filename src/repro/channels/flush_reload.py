"""Flush+Reload [70] over the simulated data cache.

The attacker owns a probe array of ``entries`` slots spaced ``stride``
bytes apart (one page per slot in the byte-leak variant, Section 9:
"a 256-page array").  The protocol:

1. ``flush()`` every slot out of the cache,
2. let the victim run (its transient gadget loads ``probe[secret]``),
3. ``reload()`` each slot and classify by latency; hot slots reveal the
   secret index.

A reload costs O(sets the victim touched): :meth:`DataCache.reload`
returns the slots that hit, and every other slot missed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cpu.cache import group_by_set
from repro.cpu.machine import Machine

#: ``(line size, sets, base, stride, entries)`` -> the probe slots'
#: ``(line, set index)`` pairs and those grouped by set.  They depend on
#: nothing else, so every channel of one geometry shares them instead
#: of resolving (and holding) its own -- an AES attack's 4,096-slot
#: probe array would otherwise cost each attack ~0.4 MB.
_RESOLVED_PROBES: Dict[tuple, Tuple[tuple, dict]] = {}


class FlushReloadChannel:
    """A probe array plus flush/reload measurement helpers."""

    def __init__(
        self,
        machine: Machine,
        base_address: int = 0x2000_0000,
        stride: int = 4096,
        entries: int = 256,
    ):
        if stride < machine.cache.line_size:
            raise ValueError("probe stride must be at least one cache line")
        self.machine = machine
        self.base_address = base_address
        self.stride = stride
        self.entries = entries
        #: The probe geometry never changes, so the per-slot cache lines
        #: and set indices are resolved once; every flush/reload sweep
        #: then runs through the cache's batch primitives.
        cache = machine.cache
        geometry = (cache.line_size, cache.sets, base_address, stride,
                    entries)
        probes = _RESOLVED_PROBES.get(geometry)
        if probes is None:
            resolved = tuple(cache.resolve_lines(
                base_address + index * stride for index in range(entries)))
            probes = _RESOLVED_PROBES[geometry] = (resolved,
                                                   group_by_set(resolved))
        self._resolved, self._groups = probes

    def slot_address(self, index: int) -> int:
        """Address of probe slot ``index``."""
        if not 0 <= index < self.entries:
            raise ValueError(f"probe index out of range: {index}")
        return self.base_address + index * self.stride

    def flush(self) -> None:
        """Flush every probe slot (the attacker's ``clflush`` loop)."""
        self.machine.cache.flush_resolved(self._resolved)

    def reload_times(self) -> List[int]:
        """Reload each slot, returning the measured latencies.

        Note the reload itself re-fills the lines, as on real hardware;
        callers must flush again before the next round.
        """
        cache = self.machine.cache
        times = [cache.miss_latency] * self.entries
        hit = cache.hit_latency
        for index in cache.reload(self._resolved, self._groups):
            times[index] = hit
        return times

    def hot_slots(self) -> List[int]:
        """Indices whose reload latency classifies as a cache hit."""
        cache = self.machine.cache
        threshold = self.machine.config.reload_threshold
        hot_on_hit = cache.hit_latency < threshold
        hot_on_miss = cache.miss_latency < threshold
        hits = cache.reload(self._resolved, self._groups)
        if not hot_on_miss:
            return hits if hot_on_hit else []
        hit_set = set(hits)
        return [index for index in range(self.entries)
                if (hot_on_hit if index in hit_set else hot_on_miss)]

    def receive_byte(self) -> int:
        """Decode a single transmitted byte, or -1 if nothing was sent.

        Ambiguous observations (several hot slots) also return -1, forcing
        the attacker to retry -- matching the retry loops in the paper's
        evaluation.
        """
        hot = self.hot_slots()
        if len(hot) == 1:
            return hot[0]
        return -1
