"""Indirect branch predictor (Figure 1).

The IBP predicts indirect-jump targets from the branch address *and* the
PHR.  It matters to this reproduction for one reason: Intel's IBPB/IBRS
mitigations act on the IBP -- and the paper's Section 7.4 finding is that
they leave the CBP (PHR and PHTs) completely untouched.  The boundary
benchmarks demonstrate that asymmetry against this model.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cpu.phr import PathHistoryRegister
from repro.utils.bits import bits, fold_xor


class IndirectBranchPredictor:
    """A tagged target cache keyed by (PC, folded PHR)."""

    def __init__(self, index_bits: int = 9, history_bits: int = 32,
                 max_entries: int = 4096):
        self.index_bits = index_bits
        self.history_bits = history_bits
        self.max_entries = max_entries
        self._entries: Dict[Tuple[int, int], int] = {}
        #: Set by IBRS: predictions made in a lower privilege mode are not
        #: consumed in a higher one.
        self.restricted = False

    def _key(self, pc: int, phr: PathHistoryRegister) -> Tuple[int, int]:
        history = fold_xor(phr.low_bits(self.history_bits),
                           self.history_bits, self.index_bits)
        return (bits(pc, 15, 0), history)

    def predict(self, pc: int, phr: PathHistoryRegister) -> Optional[int]:
        """Predicted target for the indirect branch at ``pc``."""
        return self._entries.get(self._key(pc, phr))

    def update(self, pc: int, phr: PathHistoryRegister, target: int) -> None:
        """Record a resolved indirect target."""
        if len(self._entries) >= self.max_entries:
            # Evict an arbitrary (oldest-inserted) entry.
            self._entries.pop(next(iter(self._entries)))
        self._entries[self._key(pc, phr)] = target

    def barrier(self) -> None:
        """IBPB: prevent pre-barrier software from steering post-barrier
        indirect predictions -- modelled as a full flush of the IBP."""
        self._entries.clear()

    def flush(self) -> None:
        """Drop all entries."""
        self._entries.clear()

    def populated_entries(self) -> int:
        """Number of live entries."""
        return len(self._entries)

    # ----- checkpointing ------------------------------------------------------

    def snapshot(self) -> tuple:
        """Checkpoint: target map (insertion order matters for eviction)."""
        return tuple(self._entries.items()), self.restricted

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot`."""
        entries, self.restricted = snap
        if len(self._entries) != len(entries) or (
                tuple(self._entries.items()) != entries):
            self._entries = dict(entries)
