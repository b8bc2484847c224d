"""Pathfinder reproduction: high-resolution control-flow attacks on the CBP.

A from-scratch Python reproduction of *"Pathfinder: High-Resolution
Control-Flow Attacks Exploiting the Conditional Branch Predictor"*
(Yavarzadeh et al., ASPLOS 2024), built over a functional simulator of the
reverse-engineered Intel conditional branch predictor.

Layer map (see DESIGN.md for the full inventory):

* :mod:`repro.isa` -- a small x86-flavoured ISA, assembler, interpreter;
* :mod:`repro.cpu` -- PHR, PHTs/CBP, BTB/IBP/RAS, cache, speculation,
  SMT/domain model (the simulated machine);
* :mod:`repro.channels` -- Flush+Reload;
* :mod:`repro.primitives` -- Read/Write PHR, Read/Write PHT, Extended
  Read PHR (the paper's Attack Primitives 1-4);
* :mod:`repro.pathfinder` -- the CFG-recovery tool (Section 6);
* :mod:`repro.attacks` -- boundary analysis and the simulated kernel
  (Section 7);
* :mod:`repro.jpeg` -- the image-recovery case study (Section 8);
* :mod:`repro.aes` -- the AES key-recovery case study (Section 9);
* :mod:`repro.mitigations` -- Section 10's countermeasures;
* :mod:`repro.harness` -- deterministic trial fan-out (process pool +
  machine snapshot/restore) for the repeated-trial evaluations.
"""

from repro.cpu import (
    ALDER_LAKE,
    Machine,
    MachineConfig,
    PathHistoryRegister,
    RAPTOR_LAKE,
    SKYLAKE,
    TARGET_MACHINES,
)
from repro.primitives import (
    ExtendedPhrReader,
    PhrMacros,
    PhrReader,
    PhtReader,
    PhtWriter,
    VictimHandle,
)
from repro.pathfinder import ControlFlowGraph, PathSearch
from repro.harness import TrialReport, run_trials, trial_rng
from repro.replay import ReplayEngine, ReplayStats

__version__ = "1.0.0"

__all__ = [
    "ALDER_LAKE",
    "ControlFlowGraph",
    "ExtendedPhrReader",
    "Machine",
    "MachineConfig",
    "PathHistoryRegister",
    "PathSearch",
    "PhrMacros",
    "PhrReader",
    "PhtReader",
    "PhtWriter",
    "RAPTOR_LAKE",
    "ReplayEngine",
    "ReplayStats",
    "SKYLAKE",
    "TARGET_MACHINES",
    "TrialReport",
    "VictimHandle",
    "__version__",
    "run_trials",
    "trial_rng",
]
