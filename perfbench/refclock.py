"""Reference clock: host seconds rescaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x for stretches of seconds to minutes, longer than one run.  A
plain host-seconds figure therefore moves with the host, not with the
program.  To take the host out, a run interleaves short *slices* of a
fixed reference load with its ops: a small pure-Python branch-predictor
simulation kept here, in the benchmark's own files, so no change to
``src/repro`` can make it faster or slower.  It does the same kind of
work as the simulator (attribute and list lookups, history folding,
method calls, many small short-lived objects), so it slows down when
the host slows the simulator down.

An interval of host time ``t`` is reported as ``t * REF_SLICE_S / d``,
where ``d`` is the median duration of the slices run inside the interval
(or, when fewer than ``NEAREST`` ran inside it, of the ``NEAREST``
slices nearest to it).  The time the slices themselves take is
subtracted from every interval first.  A change that makes the program
slower or faster moves the reported figure one for one; a change of
host speed moves the slices as well and cancels out.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Tuple

#: Median slice duration, in host seconds, on the host the bounds were
#: set on (2-vCPU VM, Python 3.11, quiet).  Rescaled figures are host
#: seconds at that speed.
REF_SLICE_S = 0.010
#: Slices whose median rescales an interval with fewer slices inside.
NEAREST = 9
#: Branches simulated per slice (about ``REF_SLICE_S`` of host time).
BRANCHES = 480

_HISTORY_MASK = (1 << 388) - 1
#: History bits each tagged table folds into its index and tag.
_TABLE_MASKS = tuple((1 << bits) - 1 for bits in (32, 96, 240, 388))
_PCS = [((index * 0x9E3779B1) & 0xFFFFF) << 2 for index in range(64)]
_OUTCOMES = [(index * 7 + index // 5) & 1 for index in range(97)]


def _fold(value: int, bits: int) -> int:
    folded = 0
    low = (1 << bits) - 1
    while value:
        folded ^= value & low
        value >>= bits
    return folded


class _Counter:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class _Entry:
    __slots__ = ("tag", "counter")

    def __init__(self, tag: int, counter: _Counter) -> None:
        self.tag = tag
        self.counter = counter


class _Lookup:
    """What a lookup found, kept for the update of the same branch."""

    def __init__(self, taken: bool, entry, table: int, keys: tuple) -> None:
        self.taken = taken
        self.entry = entry
        self.table = table
        self.keys = keys


class _Predictor:
    """A tagged predictor over a folded 388-bit path history.

    Like the simulator's, it allocates a lookup record per branch, tagged
    entries on a misprediction, and a history step log, so the
    allocator's cost is part of a slice too.
    """

    def __init__(self) -> None:
        self.tables = [[[] for _ in range(1024)] for _ in _TABLE_MASKS]
        self.base = [0] * 256
        self.history = 0
        self.steps: List[Tuple[int, int]] = []

    def predict(self, pc: int) -> _Lookup:
        taken = self.base[(pc >> 2) & 0xFF] >= 0
        entry = None
        provider = -1
        keys = []
        for number, table in enumerate(self.tables):
            recent = self.history & _TABLE_MASKS[number]
            index = (_fold(recent, 10) ^ (pc >> 2)) & 1023
            tag = (_fold(recent, 8) ^ pc) & 0xFF
            keys.append((index, tag))
            for way in table[index]:
                if way.tag == tag:
                    entry, provider = way, number
                    taken = way.counter.value >= 0
                    break
        return _Lookup(taken, entry, provider, tuple(keys))

    def update(self, pc: int, taken: int, lookup: _Lookup) -> None:
        if lookup.entry is not None:
            counter = lookup.entry.counter
            counter.value = (min(3, counter.value + 1) if taken
                             else max(-4, counter.value - 1))
        else:
            self.base[(pc >> 2) & 0xFF] += 1 if taken else -1
        longer = lookup.table + 1
        if lookup.taken != bool(taken) and longer < len(self.tables):
            index, tag = lookup.keys[longer]
            ways = self.tables[longer][index]
            if len(ways) >= 4:
                ways.pop(0)
            ways.append(_Entry(tag, _Counter(0 if taken else -1)))
        footprint = ((pc >> 3) ^ taken) & 3
        self.steps.append((self.history, footprint))
        self.history = ((self.history << 2) ^ footprint) & _HISTORY_MASK


def reference_load(branches: int = BRANCHES) -> int:
    """Simulate ``branches`` branches on a fresh predictor; return the
    mispredictions."""
    predictor = _Predictor()
    missed = 0
    for step in range(branches):
        pc = _PCS[step & 63]
        taken = _OUTCOMES[step % 97]
        lookup = predictor.predict(pc)
        missed += lookup.taken != bool(taken)
        predictor.update(pc, taken, lookup)
    return missed


class RefClock:
    """Runs reference slices and rescales host intervals by them.

    ``inside_ops`` says whether an op may run slices in the middle of
    itself (``sample_inside``); a traced pass turns that off, so no slice
    lands inside a span.
    """

    def __init__(self, inside_ops: bool = True) -> None:
        self.inside_ops = inside_ops
        #: ``(start, end)`` host times of every slice, in order.
        self.slices: List[Tuple[float, float]] = []
        # Warm the load up (first-call costs) without recording it.
        reference_load()

    def sample(self, count: int = 1) -> None:
        """Run ``count`` slices with the garbage collector held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                begin = time.perf_counter()
                reference_load()
                self.slices.append((begin, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def sample_inside(self) -> None:
        """A slice in the middle of an op (no-op when ``inside_ops`` is off)."""
        if self.inside_ops:
            self.sample()

    def spent(self, start: float, end: float) -> float:
        """Host seconds the slices inside ``[start, end]`` took."""
        return sum(e - b for b, e in self.slices if b >= start and e <= end)

    def factor(self, start: float, end: float) -> float:
        """``REF_SLICE_S`` over the median slice around ``[start, end]``."""
        inside = [e - b for b, e in self.slices if b >= start and e <= end]
        if len(inside) < NEAREST:
            middle = (start + end) / 2
            nearest = sorted(self.slices,
                             key=lambda s: abs((s[0] + s[1]) / 2 - middle))
            inside = [e - b for b, e in nearest[:NEAREST]]
        return REF_SLICE_S / statistics.median(inside)

    def rescale(self, start: float, end: float) -> float:
        """Reference seconds of ``[start, end]``, its slices left out."""
        return (end - start - self.spent(start, end)) * self.factor(start, end)

    def median_slice(self) -> float:
        return statistics.median(e - b for b, e in self.slices)
