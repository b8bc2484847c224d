"""Return address stack (Figure 1).

A small circular stack predicting ``ret`` targets.  Overflow wraps and
silently corrupts the oldest entries, as in real hardware.
"""

from __future__ import annotations

from typing import List, Optional


class ReturnAddressStack:
    """Fixed-depth circular return-address predictor."""

    def __init__(self, depth: int = 16):
        if depth <= 0:
            raise ValueError(f"RAS depth must be positive, got {depth}")
        self.depth = depth
        self._entries: List[Optional[int]] = [None] * depth
        self._top = 0
        self._live = 0
        self.overflows = 0
        self.underflows = 0

    def push(self, return_address: int) -> None:
        """Record the return address of a call."""
        if self._entries[self._top] is not None:
            self.overflows += 1
        else:
            self._live += 1
        self._entries[self._top] = return_address
        self._top = (self._top + 1) % self.depth

    def pop(self) -> Optional[int]:
        """Predict (and consume) the target of a return.

        Popping an empty stack -- a ``ret`` with no call on record, e.g.
        after a flush or a longjmp-style imbalance -- returns ``None``
        without moving the stack pointer, and counts an underflow.  The
        machine treats the ``None`` prediction as a return misprediction
        (real hardware redirects from the BTB/fall-through and usually
        mispredicts).
        """
        if self._live == 0:
            self.underflows += 1
            return None
        self._top = (self._top - 1) % self.depth
        predicted = self._entries[self._top]
        self._entries[self._top] = None
        self._live -= 1
        return predicted

    def flush(self) -> None:
        """Drop all entries."""
        self._entries = [None] * self.depth
        self._top = 0
        self._live = 0

    # ----- checkpointing ------------------------------------------------------

    def snapshot(self) -> tuple:
        """Checkpoint: entries, stack pointer, live count, event counters."""
        return (tuple(self._entries), self._top, self._live,
                self.overflows, self.underflows)

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot`."""
        entries, self._top, self._live, self.overflows, self.underflows = snap
        self._entries = list(entries)
