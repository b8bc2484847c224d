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

from typing import Iterable, List, Optional, Tuple

from repro.cpu.footprint import branch_footprint
from repro.utils.bits import mask

class PathHistoryRegister:
    """A ``capacity``-doublet shift register with footprint injection.

    The raw value is the register's only state.  Derived caches (the
    tagged PHTs' folded histories, the CBP's stashed lookup keys) key
    on that value, so every mutator just sets it.
    """

    #: The footprint function of this register family.  Subclasses (the
    #: M1-style register of :mod:`repro.cpu.m1`) override it; the tagged
    #: tables fold the value alone, so they carry over unchanged.
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
        self._value = ((self._value << 2) ^ footprint) & self._mask

    def inject(self, footprint: int) -> None:
        """Shift one doublet and XOR a precomputed ``footprint``.

        The core of :meth:`update`, exposed for register families whose
        commit rules inject footprints :meth:`update` cannot express (the
        M1-style register folds one for *not-taken* conditionals too).
        """
        self._value = ((self._value << 2) ^ footprint) & self._mask

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

    def shift(self, doublets: int = 1) -> None:
        """Shift left by ``doublets`` without injecting a footprint.

        This is the state transition performed by ``doublets`` taken
        branches with all-zero footprints (the ``Shift_PHR`` macro).
        """
        if doublets < 0:
            raise ValueError(f"shift amount must be non-negative: {doublets}")
        self._value = (self._value << (2 * doublets)) & self._mask

    def clear(self) -> None:
        """Reset to all zeros (``Clear_PHR`` == ``Shift_PHR[capacity]``)."""
        self._value = 0

    def set_value(self, value: int) -> None:
        """Force the raw register contents."""
        self._value = value & self._mask

    def set_doublet(self, index: int, doublet: int) -> None:
        """Force doublet ``index`` to ``doublet`` (0..3)."""
        if not 0 <= doublet <= 0b11:
            raise ValueError(f"doublet value out of range: {doublet}")
        if not 0 <= index < self.capacity:
            raise ValueError(f"doublet index out of range: {index}")
        cleared = self._value & ~(0b11 << (2 * index))
        self._value = cleared | (doublet << (2 * index))

    def copy(self) -> "PathHistoryRegister":
        """An independent copy (of the same register family)."""
        return type(self)(self.capacity, self._value)

    # ----- checkpointing ------------------------------------------------------

    def snapshot(self) -> int:
        """Checkpoint: the raw register value (the PHR's only state)."""
        return self._value

    def restore(self, snap: int) -> None:
        """Restore a :meth:`snapshot` (equivalent to :meth:`set_value`)."""
        self._value = snap & self._mask

    # ----- analysis helpers ---------------------------------------------------

    def reverse_update(self, branch_address: int,
                       target_address: int) -> Tuple[int, int]:
        """Undo one taken-branch update.

        Returns ``(previous_value, unknown_msb_doublet_index)``: every
        doublet of the pre-branch PHR is recovered except the most
        significant one, which was shifted out and is returned as zero.
        This is the inversion step used by both the Extended Read PHR
        primitive (Figure 5) and the Pathfinder path search.  The
        register contents are untouched.
        """
        footprint = self.footprint(branch_address, target_address)
        previous = ((self._value ^ footprint) >> 2) & mask(2 * (self.capacity - 1))
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
