"""Cross-architecture read/write-primitive measurements.

The paper's primitives are built for the Intel CBP; this module distils
each into a *family-generic* measurement that any registered predictor
backend (:mod:`repro.cpu.model`) can run, so the sec4/sec6 benchmark
arms can emit one result matrix across architectures:

* :func:`measure_read_primitive` -- the Section 4 read channel reduced
  to its essence: how well does the predictor *disambiguate branch
  history*?  A victim branch's direction is a function of which of
  ``paths`` history preludes ran before it; a predictor that keys its
  tables on history learns every path (accuracy -> 1.0), a
  history-blind bimodal is pinned at the path-mix base rate.  The
  trained-vs-floor contrast is exactly what makes the PHR readable on
  the paper's machines.
* :func:`measure_write_primitive` -- the Section 6 write channel
  (``Write_PHT``: plant a prediction at a chosen (PC, history)
  coordinate): bias the branch not-taken over random histories, plant
  *taken* at one chosen history value, then check (a) the plant reads
  back (``planted_rate``) and (b) it did not spill into other history
  values at the same PC (``specificity``).  Tagged history tables give
  high specificity directly; the tournament earns it differently -- its
  chooser learns to trust the history-indexed gshare component during
  planting (gshare's fresh counters cross the taken threshold before
  the biased local does, winning the disagreements), so off-history
  probes land on cold gshare entries and stay not-taken.  Same
  measured outcome, different microarchitectural mechanism -- exactly
  the contrast the matrix exists to record.

Every measurement is deterministic (seeded
:class:`~repro.utils.rng.DeterministicRng`) and drives machines only
through the family-agnostic surface (``observe_conditional``,
``clear_phr``, ``model.build_history``, ``cbp.predict/update``), so one
implementation serves all backends identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine
from repro.utils.rng import DeterministicRng

#: Code addresses of the prelude branches and the victim branch.
_PRELUDE_BASE = 0x40_0000
_VICTIM_PC = 0x41_0040


@dataclass(frozen=True)
class ReadPrimitiveResult:
    """History-disambiguation accuracy of one backend."""

    model_id: str
    paths: int
    train_rounds: int
    test_rounds: int
    #: Fraction of test-phase victim commits predicted correctly.
    accuracy: float
    #: Base rate a history-blind predictor is pinned at (taken mix).
    blind_floor: float

    @property
    def contrast(self) -> float:
        """Accuracy above the history-blind floor (the read signal)."""
        return self.accuracy - self.blind_floor

    def as_row(self) -> Dict[str, object]:
        return {
            "model": self.model_id,
            "paths": self.paths,
            "accuracy": round(self.accuracy, 4),
            "blind_floor": round(self.blind_floor, 4),
            "contrast": round(self.contrast, 4),
        }


@dataclass(frozen=True)
class WritePrimitiveResult:
    """Plant-then-predict behaviour of one backend."""

    model_id: str
    plants: int
    probes_per_plant: int
    #: Fraction of plants whose (PC, history) prediction read back taken.
    planted_rate: float
    #: Fraction of off-history probes that stayed not-taken.
    specificity: float

    def as_row(self) -> Dict[str, object]:
        return {
            "model": self.model_id,
            "plants": self.plants,
            "planted_rate": round(self.planted_rate, 4),
            "specificity": round(self.specificity, 4),
        }


def _path_prelude(path: int, length: int) -> Tuple[Tuple[int, int, bool], ...]:
    """The conditional-branch prelude encoding ``path``.

    Branch ``k`` of the prelude is taken iff bit ``k`` of ``path`` is
    set.  Every family's history sees the difference: the Intel PHR
    records the taken subset's footprints, the M1 register records both
    directions, the tournament GHR records the direction bits.
    """
    return tuple(
        (_PRELUDE_BASE + 0x40 * k, _PRELUDE_BASE + 0x40 * k + 0x20,
         bool((path >> k) & 1))
        for k in range(length)
    )


def measure_read_primitive(
    config: MachineConfig,
    paths: int = 4,
    prelude_length: int = 4,
    train_rounds: int = 24,
    test_rounds: int = 8,
    seed: int = 0x5EC4,
) -> ReadPrimitiveResult:
    """Train and score the history-disambiguation channel on ``config``.

    One *round* visits every path once (in a seeded shuffled order so no
    family can exploit round structure): clear the thread history, run
    the path's prelude, then commit the victim branch whose direction is
    ``path & 1``.  The first ``train_rounds`` rounds train; accuracy is
    scored over the last ``test_rounds``.
    """
    if paths < 2 or not paths & 1 == 0:
        raise ValueError(f"paths must be even and >= 2, got {paths}")
    if (1 << prelude_length) < paths:
        raise ValueError("prelude too short to encode every path")
    machine = Machine(config)
    rng = DeterministicRng(seed)
    preludes = [_path_prelude(path, prelude_length) for path in range(paths)]
    outcomes = [bool(path & 1) for path in range(paths)]

    correct = 0
    tested = 0
    for round_index in range(train_rounds + test_rounds):
        order = list(range(paths))
        for position in range(paths - 1, 0, -1):
            other = rng.integer(0, position)
            order[position], order[other] = order[other], order[position]
        for path in order:
            machine.clear_phr()
            for pc, target, taken in preludes[path]:
                machine.observe_conditional(pc, target, taken)
            mispredicted = machine.observe_conditional(
                _VICTIM_PC, _VICTIM_PC + 0x80, outcomes[path])
            if round_index >= train_rounds:
                tested += 1
                correct += not mispredicted
    blind_floor = max(sum(outcomes), paths - sum(outcomes)) / paths
    return ReadPrimitiveResult(
        model_id=machine.model.model_id,
        paths=paths,
        train_rounds=train_rounds,
        test_rounds=test_rounds,
        accuracy=correct / tested,
        blind_floor=blind_floor,
    )


def measure_write_primitive(
    config: MachineConfig,
    plants: int = 16,
    bias_rounds: int = 24,
    train_updates: int = 6,
    probes_per_plant: int = 16,
    seed: int = 0x5EC6,
) -> WritePrimitiveResult:
    """Plant predictions at chosen (PC, history) coordinates on ``config``.

    Per plant: train the branch not-taken over ``bias_rounds`` random
    history values, re-train *taken* at one chosen history value with
    ``train_updates`` updates, then read the prediction back at the
    planted coordinate and at ``probes_per_plant`` other random history
    values of the same PC.
    """
    machine = Machine(config)
    history = machine.model.build_history()
    width = history.bits
    rng = DeterministicRng(seed)

    planted_hits = 0
    clean_probes = 0
    total_probes = 0
    for plant in range(plants):
        pc = 0x42_0000 + 0x940 * plant
        for _ in range(bias_rounds):
            history.set_value(rng.value_bits(width))
            machine.cbp.update(pc, history, False)
        planted_value = rng.value_bits(width)
        history.set_value(planted_value)
        for _ in range(train_updates):
            machine.cbp.update(pc, history, True)
        planted_hits += machine.cbp.predict(pc, history).taken
        for _ in range(probes_per_plant):
            probe_value = rng.value_bits(width)
            if probe_value == planted_value:
                continue
            history.set_value(probe_value)
            total_probes += 1
            clean_probes += not machine.cbp.predict(pc, history).taken
    return WritePrimitiveResult(
        model_id=machine.model.model_id,
        plants=plants,
        probes_per_plant=probes_per_plant,
        planted_rate=planted_hits / plants,
        specificity=clean_probes / total_probes if total_probes else 0.0,
    )
