"""The conditional branch predictor: base predictor + tagged PHTs.

Prediction follows the TAGE discipline the paper attributes to Intel's
CBP: the matching tagged table with the *longest* history provides the
prediction; the base predictor is the fallback.  On a misprediction an
entry is allocated in the next-longer table so the predictor can learn
history-correlated patterns -- exactly the behaviour the Read PHR
primitive's train/test pair exploits (it converges to ~0% mispredictions
when two distinct PHR values disambiguate a random branch, and stays at
~50% when the PHR values collide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cpu.pht import BasePredictor, TaggedEntry, TaggedTable
from repro.cpu.phr import PathHistoryRegister


@dataclass(slots=True)
class Prediction:
    """The outcome of a CBP lookup.

    ``provider`` is the 1-based tagged-table number, or 0 for the base
    predictor.  ``entry`` is the providing tagged entry when applicable.
    ``alternate`` is the prediction the next-shorter component would have
    made (used for the usefulness heuristic).

    ``keys`` carries each tagged table's ``(index, tag)`` lookup key from
    the predict-time probe (tag ``None`` when the probe missed on an
    empty set), stamped with the PHR identity and value they were
    computed against.  :meth:`ConditionalBranchPredictor.update` reuses
    them -- a branch is hashed once per commit, not twice.
    """

    taken: bool
    provider: int
    entry: Optional[TaggedEntry]
    alternate: bool
    keys: Tuple[Tuple[int, Optional[int]], ...] = ()
    phr: Optional[PathHistoryRegister] = field(default=None, repr=False)
    phr_value: int = -1


class ConditionalBranchPredictor:
    """Base predictor plus N tagged tables sharing one update policy."""

    def __init__(
        self,
        history_lengths: Sequence[int],
        sets: int = 512,
        ways: int = 4,
        counter_bits: int = 3,
        tag_bits: int = 11,
        base_index_bits: int = 13,
        pc_index_bit: int = 5,
    ):
        if list(history_lengths) != sorted(history_lengths):
            raise ValueError("history lengths must be non-decreasing")
        self.counter_bits = counter_bits
        self.base = BasePredictor(index_bits=base_index_bits,
                                  counter_bits=counter_bits)
        self.tables: List[TaggedTable] = [
            TaggedTable(
                history_doublets=length,
                sets=sets,
                ways=ways,
                counter_bits=counter_bits,
                tag_bits=tag_bits,
                pc_index_bit=pc_index_bit,
            )
            for length in history_lengths
        ]
        #: Test-only fault-injection point: when set, :meth:`update` trains
        #: toward ``train_fault(pc, taken)`` instead of the architectural
        #: outcome (prediction and misprediction accounting still use the
        #: real direction).  The differential fuzzer's mutation-smoke test
        #: installs a deliberate perturbation here and asserts the fuzzer
        #: finds it; production code must never set this.
        self.train_fault: Optional[object] = None

    # ----- prediction -----------------------------------------------------

    def predict(self, pc: int, phr: PathHistoryRegister) -> Prediction:
        """Look up ``(pc, phr)`` and return the provided prediction."""
        taken = alternate = self.base.predict(pc)
        provider = 0
        entry: Optional[TaggedEntry] = None
        keys = []
        for number, table in enumerate(self.tables, start=1):
            found, index, tag = table.probe(pc, phr)
            keys.append((index, tag))
            if found is not None:
                provider = number
                entry = found
                alternate = taken
                taken = found.counter.value >= found.counter.threshold
        return Prediction(taken=taken, provider=provider, entry=entry,
                          alternate=alternate, keys=tuple(keys), phr=phr,
                          phr_value=phr._value)

    # ----- training ---------------------------------------------------------

    def update(self, pc: int, phr: PathHistoryRegister, taken: bool,
               prediction: Optional[Prediction] = None) -> None:
        """Train the predictor with a resolved branch outcome.

        ``prediction`` should be the object returned by :meth:`predict` for
        this branch; if omitted -- or stale, i.e. the PHR mutated since
        the lookup so its stashed table keys no longer apply -- it is
        recomputed (the lookup is deterministic, so this is safe).
        """
        if (prediction is None or prediction.phr is not phr
                or prediction.phr_value != phr._value):
            prediction = self.predict(pc, phr)
        if self.train_fault is not None:
            taken = bool(self.train_fault(pc, taken))

        # Train the provider.
        if prediction.entry is not None:
            prediction.entry.counter.update(taken)
            if (prediction.taken == taken
                    and prediction.taken != prediction.alternate
                    and prediction.entry.useful < 3):
                prediction.entry.useful += 1
        else:
            self.base.update(pc, taken)

        # The base predictor also trains when a weak tagged entry provided;
        # this keeps it a useful fallback (and mirrors TAGE's alt-update).
        if prediction.entry is not None and not prediction.entry.counter.is_saturated:
            self.base.update(pc, taken)

        # Allocate on misprediction in the next-longer table, reusing the
        # predict-time lookup key instead of rehashing.
        if prediction.taken != taken and prediction.provider < len(self.tables):
            position = prediction.provider
            keys = prediction.keys
            key = keys[position] if position < len(keys) else None
            self.tables[position].allocate(pc, phr, taken, key=key)

    def observe(self, pc: int, phr: PathHistoryRegister, taken: bool) -> bool:
        """Predict and immediately train; return whether it mispredicted.

        This is the one-call form used by attack loops that only need the
        misprediction signal.
        """
        prediction = self.predict(pc, phr)
        self.update(pc, phr, taken, prediction)
        return prediction.taken != taken

    # ----- maintenance ---------------------------------------------------------

    def flush(self) -> None:
        """Drop all predictor state (the Section 10 PHT-flush mitigation)."""
        self.base.flush()
        for table in self.tables:
            table.flush()

    def snapshot(self) -> tuple:
        """Sparse checkpoint of the base predictor and every tagged table."""
        return (self.base.snapshot(),
                tuple(table.snapshot() for table in self.tables))

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot` (diff-based, see the components)."""
        base_snap, table_snaps = snap
        self.base.restore(base_snap)
        for table, table_snap in zip(self.tables, table_snaps):
            table.restore(table_snap)

    def populated_entries(self) -> int:
        """Total live entries across base and tagged tables."""
        return self.base.populated_entries() + sum(
            table.populated_entries() for table in self.tables
        )
