"""The gshare/tournament predictor family (Assassyn-CPU baseline).

`/root/related/konpaku-ming__Assassyn-CPU` sketches the classic
tournament organisation this family models: a *local* bimodal table
indexed by the branch PC, a *gshare* table indexed by the PC XORed with
a folded global history register (GHR), and a PC-indexed *chooser* that
learns per-branch which component to trust.  It is the textbook
pre-TAGE baseline -- exactly the contrast the cross-architecture matrix
wants next to the paper's Intel CBP: shorter history, no tagging, no
allocation cascade, and a *direction* history (taken/not-taken bits)
instead of a *path* history (footprint folds).

Attack-relevant semantics, stated up front:

* The GHR records the outcome of **every** conditional branch -- taken
  and not-taken alike -- and ignores unconditional branches entirely.
  A `Shift_PHR`-style unconditional-jump ladder therefore does *not*
  scrub this family's history; only retired conditionals move it.
* Aliasing is unmitigated (no tags): two branches whose
  ``PC ^ fold(GHR)`` collide share a gshare counter, which is this
  family's analogue of the PHT-collision channel the paper's Read/Write
  primitives exploit.

All three tables reuse :class:`~repro.cpu.pht.BasePredictor` (lazily
populated counters, sparse snapshots), fed a
component-specific index in place of a raw PC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cpu.model import PredictorModel, register_model
from repro.cpu.pht import BasePredictor
from repro.utils.bits import fold_xor, mask

#: Width of the global history register in direction bits.
GHR_BITS = 16

#: Index width of the gshare table (2^13 counters, matching the Intel
#: base predictor's footprint so the families' table budgets are
#: comparable in the matrix benchmarks).
GSHARE_INDEX_BITS = 13

#: Tournament counters are the classic 2-bit saturating kind.
TOURNAMENT_COUNTER_BITS = 2


class GlobalHistoryRegister:
    """A ``capacity``-bit shift register of conditional outcomes.

    Implements the :mod:`repro.cpu.model` history protocol.  The
    ``capacity`` is counted in *bits* (one direction bit per retired
    conditional), so :attr:`bits` equals :attr:`capacity` -- unlike the
    doublet-granular PHR where ``bits == 2 * capacity``.
    """

    def __init__(self, capacity: int = GHR_BITS, value: int = 0):
        if capacity < 1:
            raise ValueError(f"GHR capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._mask = mask(capacity)
        self._value = value & self._mask

    # ----- inspection -----------------------------------------------------

    @property
    def value(self) -> int:
        """The raw register contents as a ``capacity``-bit integer."""
        return self._value

    @property
    def bits(self) -> int:
        """Total width in bits (== :attr:`capacity` for a GHR)."""
        return self.capacity

    def low_bits(self, count: int) -> int:
        """The low ``count`` bits (used by gshare/IBP index hashes)."""
        return self._value & mask(count)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GlobalHistoryRegister):
            return (self.capacity, self._value) == (other.capacity,
                                                    other._value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.capacity, self._value))

    def __repr__(self) -> str:
        return (f"GlobalHistoryRegister(capacity={self.capacity}, "
                f"value={self._value:#x})")

    # ----- machine commit hooks -------------------------------------------

    def on_conditional(self, branch_address: int, target_address: int,
                       taken: bool) -> None:
        """Shift in the direction bit of a retired conditional branch."""
        self._value = ((self._value << 1) | int(taken)) & self._mask

    def on_taken(self, branch_address: int, target_address: int) -> None:
        """Taken non-conditional branches do not move a classic GHR."""

    # ----- mutation -------------------------------------------------------

    def clear(self) -> None:
        """Reset to all zeros (this family's history-flush mitigation)."""
        self._value = 0

    def set_value(self, value: int) -> None:
        """Force the raw register contents (attack-side history seeding)."""
        self._value = value & self._mask

    def copy(self) -> "GlobalHistoryRegister":
        """An independent copy."""
        return GlobalHistoryRegister(self.capacity, self._value)

    # ----- checkpointing --------------------------------------------------

    def snapshot(self) -> int:
        """Checkpoint: the raw register value (the GHR's only state)."""
        return self._value

    def restore(self, snap: int) -> None:
        """Restore a :meth:`snapshot`."""
        self._value = snap & self._mask


@dataclass(slots=True)
class TournamentPrediction:
    """The outcome of a tournament lookup.

    Carries both component votes and the chooser's pick so
    :meth:`TournamentPredictor.update` can train the chooser toward
    whichever component was right -- without re-probing.  ``history`` /
    ``history_value`` stamp the GHR state of the lookup; a stale
    prediction is recomputed on update, mirroring
    :class:`~repro.cpu.cbp.Prediction`.
    """

    taken: bool
    local_taken: bool
    gshare_taken: bool
    chose_gshare: bool
    gshare_index: int
    history: Optional[GlobalHistoryRegister] = field(default=None, repr=False)
    history_value: int = -1


class TournamentPredictor:
    """Local bimodal + gshare + chooser, one update policy."""

    def __init__(self, ghr_bits: int = GHR_BITS,
                 local_index_bits: int = 13,
                 gshare_index_bits: int = GSHARE_INDEX_BITS,
                 counter_bits: int = TOURNAMENT_COUNTER_BITS):
        self.ghr_bits = ghr_bits
        self.gshare_index_bits = gshare_index_bits
        self.local = BasePredictor(index_bits=local_index_bits,
                                   counter_bits=counter_bits)
        self.gshare = BasePredictor(index_bits=gshare_index_bits,
                                    counter_bits=counter_bits)
        #: Chooser counters: value >= threshold means "trust gshare".
        self.chooser = BasePredictor(index_bits=local_index_bits,
                                     counter_bits=counter_bits)

    def gshare_index(self, pc: int, history: GlobalHistoryRegister) -> int:
        """The gshare table index: folded GHR XOR branch PC."""
        folded = fold_xor(history.low_bits(self.ghr_bits), self.ghr_bits,
                          self.gshare_index_bits)
        return (pc ^ folded) & mask(self.gshare_index_bits)

    # ----- prediction -----------------------------------------------------

    def predict(self, pc: int,
                history: GlobalHistoryRegister) -> TournamentPrediction:
        """Look up ``(pc, history)`` and return the chosen prediction."""
        local_taken = self.local.predict(pc)
        index = self.gshare_index(pc, history)
        gshare_taken = self.gshare.predict(index)
        chose_gshare = self.chooser.predict(pc)
        return TournamentPrediction(
            taken=gshare_taken if chose_gshare else local_taken,
            local_taken=local_taken,
            gshare_taken=gshare_taken,
            chose_gshare=chose_gshare,
            gshare_index=index,
            history=history,
            history_value=history._value,
        )

    # ----- training -------------------------------------------------------

    def update(self, pc: int, history: GlobalHistoryRegister, taken: bool,
               prediction: Optional[TournamentPrediction] = None) -> None:
        """Train all three tables with a resolved branch outcome."""
        if (prediction is None or prediction.history is not history
                or prediction.history_value != history._value):
            prediction = self.predict(pc, history)
        # Both components always train (the classic Alpha 21264 rule).
        self.local.update(pc, taken)
        self.gshare.update(prediction.gshare_index, taken)
        # The chooser trains only when the components disagree, toward
        # whichever one was right.
        local_right = prediction.local_taken == taken
        gshare_right = prediction.gshare_taken == taken
        if local_right != gshare_right:
            self.chooser.update(pc, gshare_right)

    def observe(self, pc: int, history: GlobalHistoryRegister,
                taken: bool) -> bool:
        """Predict and immediately train; return whether it mispredicted."""
        prediction = self.predict(pc, history)
        self.update(pc, history, taken, prediction)
        return prediction.taken != taken

    # ----- maintenance ----------------------------------------------------

    def flush(self) -> None:
        """Drop all three tables (this family's flush mitigation)."""
        self.local.flush()
        self.gshare.flush()
        self.chooser.flush()

    def snapshot(self) -> tuple:
        """Sparse checkpoint of all three tables."""
        return (self.local.snapshot(), self.gshare.snapshot(),
                self.chooser.snapshot())

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot` (diff-based, see BasePredictor)."""
        local_snap, gshare_snap, chooser_snap = snap
        self.local.restore(local_snap)
        self.gshare.restore(gshare_snap)
        self.chooser.restore(chooser_snap)

    def populated_entries(self) -> int:
        """Total live counters across all three tables."""
        return (self.local.populated_entries()
                + self.gshare.populated_entries()
                + self.chooser.populated_entries())

    # ----- fuzz-oracle support --------------------------------------------

    def structural_violations(self, deep: bool = False) -> List[str]:
        """Structural invariants for the fuzz oracle's periodic walk.

        Every live counter must sit inside its n-bit saturating range
        and the ``_populated`` bookkeeping must match the live entries
        (``deep`` scans the full arrays for strays), mirroring the
        oracle's built-in TAGE walk.
        """
        violations: List[str] = []
        for name, table in (("local", self.local), ("gshare", self.gshare),
                            ("chooser", self.chooser)):
            maximum = (1 << table.counter_bits) - 1
            for idx in table._populated:
                counter = table._counters[idx]
                if counter is None:
                    violations.append(
                        f"tournament {name} index {idx} in _populated "
                        f"but empty")
                elif not 0 <= counter.value <= maximum:
                    violations.append(
                        f"tournament {name} counter {idx} value "
                        f"{counter.value} outside [0, {maximum}]")
            if deep:
                live = {idx for idx, counter in enumerate(table._counters)
                        if counter is not None}
                if live != table._populated:
                    violations.append(
                        f"tournament {name} _populated bookkeeping "
                        f"drifted: {len(live ^ table._populated)} stray "
                        f"indices")
        return violations


@register_model
class GshareTournamentModel(PredictorModel):
    """The gshare/tournament baseline family."""

    model_id = "gshare-tournament"
    display_name = "gshare + local tournament"
    provenance = "Assassyn-CPU tournament pipeline (related repo)"

    def build_direction_predictor(self) -> TournamentPredictor:
        return TournamentPredictor(
            local_index_bits=self.config.base_index_bits,
        )

    def build_history(self) -> GlobalHistoryRegister:
        return GlobalHistoryRegister(GHR_BITS)
