"""The path history register (PHR) -- paper Section 2.2.1.

The PHR records the last ``capacity`` taken branches (194 on Alder/Raptor
Lake, 93 on Skylake).  On every taken branch it shifts left by one doublet
(two bits) and XORs the 16-bit branch footprint into its low 8 doublets:

    PHR_new = (PHR_old << 2) ^ footprint

Not-taken branches leave it untouched.  Because even and odd bit planes
never mix, the natural unit is the *doublet* (2 bits); all APIs here work
in doublets, with doublet 0 the least significant.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Tuple

from repro.cpu.footprint import branch_footprint
from repro.utils.bits import mask

#: Taken-branch steps the register journals for incremental-fold catch-up.
#: Consumers that fall further behind recompute their folds from scratch,
#: which the halving ``fold_xor`` keeps cheap, so a short journal suffices.
STEP_JOURNAL_DEPTH = 8


class PathHistoryRegister:
    """A ``capacity``-doublet shift register with footprint injection.

    Every mutation bumps :attr:`version`, and plain taken-branch updates
    additionally journal ``(previous_value, footprint)`` so that folded-
    history consumers (the tagged PHTs) can advance their registers in
    O(1) per taken branch instead of re-folding the full history --
    the circular-fold discipline of real TAGE hardware.  Any other
    mutation (``set_value``/``shift``/``clear``/...) clears the journal,
    forcing those consumers to lazily recompute.
    """

    #: The footprint function of this register family.  Subclasses (the
    #: M1-style register of :mod:`repro.cpu.m1`) override it; the tagged
    #: tables and the step journal are footprint-agnostic, so the whole
    #: folded-history machinery carries over unchanged.
    footprint = staticmethod(branch_footprint)

    def __init__(self, capacity: int = 194, value: int = 0):
        # Hardware PHRs are always wide enough to hold a footprint, but
        # the register math is well defined for any positive width; the
        # Pathfinder search uses "virtual" registers as wide as the path
        # history under reconstruction, which can be arbitrarily short.
        if capacity < 1:
            raise ValueError(f"PHR capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._mask = mask(2 * capacity)
        self._value = value & self._mask
        #: Monotonic mutation counter; folded-history caches key on it.
        self.version = 0
        self._steps: deque = deque(maxlen=STEP_JOURNAL_DEPTH)

    # ----- inspection -------------------------------------------------------

    @property
    def value(self) -> int:
        """The raw register contents as a ``2*capacity``-bit integer."""
        return self._value

    @property
    def bits(self) -> int:
        """Total width in bits."""
        return 2 * self.capacity

    def doublet(self, index: int) -> int:
        """Doublet ``index`` (0 = least significant / most recent)."""
        if not 0 <= index < self.capacity:
            raise ValueError(f"doublet index out of range: {index}")
        return (self._value >> (2 * index)) & 0b11

    def doublets(self) -> List[int]:
        """All doublets, least significant first."""
        return [self.doublet(i) for i in range(self.capacity)]

    def low_bits(self, count: int) -> int:
        """The low ``count`` bits (used by PHT index/tag hashes)."""
        return self._value & mask(count)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PathHistoryRegister):
            return (self.capacity, self._value) == (other.capacity, other._value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.capacity, self._value))

    def __repr__(self) -> str:
        return f"PathHistoryRegister(capacity={self.capacity}, value={self._value:#x})"

    # ----- mutation ---------------------------------------------------------

    def update(self, branch_address: int, target_address: int) -> None:
        """Record one taken branch (shift one doublet, XOR footprint)."""
        footprint = self.footprint(branch_address, target_address)
        value = self._value
        self._steps.append((value, footprint))
        self._value = ((value << 2) ^ footprint) & self._mask
        self.version += 1

    def inject(self, footprint: int) -> None:
        """Shift one doublet and XOR a precomputed ``footprint``.

        The journalled core of :meth:`update`, exposed for register
        families whose commit rules inject footprints :meth:`update`
        cannot express (the M1-style register folds one for *not-taken*
        conditionals too).  Journal semantics match :meth:`update`, so
        folded-history consumers stay O(1) across these steps as well.
        """
        value = self._value
        self._steps.append((value, footprint))
        self._value = ((value << 2) ^ footprint) & self._mask
        self.version += 1

    # ----- machine commit hooks (the PredictorModel history protocol) -----

    def on_conditional(self, branch_address: int, target_address: int,
                       taken: bool) -> None:
        """Commit hook for a resolved conditional branch.

        Intel semantics (paper Section 2.2.1): only *taken* branches
        touch the PHR; a not-taken conditional leaves it untouched.
        Other register families override this -- the family's history
        update discipline lives here, not in :class:`Machine`.
        """
        if taken:
            self.update(branch_address, target_address)

    def on_taken(self, branch_address: int, target_address: int) -> None:
        """Commit hook for a taken non-conditional branch.

        Intel semantics: every taken branch folds its footprint,
        conditional or not -- the property the ``Shift_PHR`` macro and
        the Section 10 PHR-flush mitigation both rely on.
        """
        self.update(branch_address, target_address)

    def steps_since(self, version: int) -> Optional[Tuple[Tuple[int, int], ...]]:
        """The journalled ``(previous_value, footprint)`` taken-branch steps
        leading from ``version`` to the current version.

        Returns ``None`` when the gap is not bridgeable by journalled
        updates alone -- the journal is too short, or a non-update
        mutation intervened (those clear the journal).  Folded-history
        consumers then recompute from scratch.
        """
        behind = self.version - version
        if behind == 0:
            return ()
        if behind < 0 or behind > len(self._steps):
            return None
        steps = tuple(self._steps)
        return steps[len(steps) - behind:]

    def _invalidate(self) -> None:
        """Version-bump a non-update mutation and drop the step journal."""
        self._steps.clear()
        self.version += 1

    def shift(self, doublets: int = 1) -> None:
        """Shift left by ``doublets`` without injecting a footprint.

        This is the state transition performed by ``doublets`` taken
        branches with all-zero footprints (the ``Shift_PHR`` macro).
        """
        if doublets < 0:
            raise ValueError(f"shift amount must be non-negative: {doublets}")
        self._value = (self._value << (2 * doublets)) & self._mask
        self._invalidate()

    def clear(self) -> None:
        """Reset to all zeros (``Clear_PHR`` == ``Shift_PHR[capacity]``)."""
        self._value = 0
        self._invalidate()

    def set_value(self, value: int) -> None:
        """Force the raw register contents."""
        self._value = value & self._mask
        # _invalidate(), inlined: set_value is the hottest non-update
        # mutation (every attack arm re-seeds the PHR through it).
        self._steps.clear()
        self.version += 1

    def set_doublet(self, index: int, doublet: int) -> None:
        """Force doublet ``index`` to ``doublet`` (0..3)."""
        if not 0 <= doublet <= 0b11:
            raise ValueError(f"doublet value out of range: {doublet}")
        if not 0 <= index < self.capacity:
            raise ValueError(f"doublet index out of range: {index}")
        cleared = self._value & ~(0b11 << (2 * index))
        self._value = cleared | (doublet << (2 * index))
        self._invalidate()

    def copy(self) -> "PathHistoryRegister":
        """An independent copy (of the same register family)."""
        return type(self)(self.capacity, self._value)

    # ----- checkpointing ------------------------------------------------------

    def snapshot(self) -> int:
        """Checkpoint: the raw register value (the PHR's only state)."""
        return self._value

    def restore(self, snap: int) -> None:
        """Restore a :meth:`snapshot`.

        Equivalent to :meth:`set_value`: the version bumps and the step
        journal drops even when the value is unchanged, so folded-history
        consumers resync rather than trusting a cache that may span the
        restore boundary.
        """
        self._value = snap & self._mask
        self._steps.clear()
        self.version += 1

    # ----- analysis helpers ---------------------------------------------------

    def reverse_update(self, branch_address: int,
                       target_address: int) -> Tuple[int, int]:
        """Undo one taken-branch update.

        Returns ``(previous_value, unknown_msb_doublet_index)``: every
        doublet of the pre-branch PHR is recovered except the most
        significant one, which was shifted out and is returned as zero.
        This is the inversion step used by both the Extended Read PHR
        primitive (Figure 5) and the Pathfinder path search.

        The register contents are untouched, but the version is bumped
        conservatively: analysis loops interleave ``reverse_update`` with
        raw value surgery, and a stale-but-matching version must never let
        a folded-history cache survive such a sequence.
        """
        footprint = self.footprint(branch_address, target_address)
        previous = ((self._value ^ footprint) >> 2) & mask(2 * (self.capacity - 1))
        self._invalidate()
        return previous, self.capacity - 1

    @classmethod
    def from_doublets(cls, doublets: Iterable[int],
                      capacity: Optional[int] = None) -> "PathHistoryRegister":
        """Build a PHR from doublets listed least significant first."""
        doublet_list = list(doublets)
        if capacity is None:
            capacity = len(doublet_list)
        if len(doublet_list) > capacity:
            raise ValueError("more doublets than capacity")
        value = 0
        for index, doublet in enumerate(doublet_list):
            if not 0 <= doublet <= 0b11:
                raise ValueError(f"doublet value out of range: {doublet}")
            value |= doublet << (2 * index)
        return cls(capacity, value)


def replay_taken_branches(
    capacity: int,
    branches: Iterable[Tuple[int, int]],
    initial_value: int = 0,
) -> PathHistoryRegister:
    """Compute the PHR after a sequence of taken ``(pc, target)`` branches.

    This is the pure-function form of the update used by ground-truth
    computations in tests and by the Pathfinder tool.
    """
    phr = PathHistoryRegister(capacity, initial_value)
    for branch_address, target_address in branches:
        phr.update(branch_address, target_address)
    return phr
