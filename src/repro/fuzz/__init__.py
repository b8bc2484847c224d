"""Differential fuzzing and invariant oracle for the twin implementations.

The simulator keeps *twins* -- a fast path and a reference path -- for
its hottest components: the predecoded vs isinstance-dispatch
interpreter engines, the lockstep batch vs scalar predictors, and the
T-table vs byte-at-a-time AES data paths.  This package pits
them against each other over seeded random programs:

* :mod:`repro.fuzz.twins` -- the reference and naive twins themselves,
  kept out of the production call graph;
* :mod:`repro.fuzz.generator` -- shape-based ISA program generation
  (terminating by construction, rebuildable from ``(seed, index)``);
* :mod:`repro.fuzz.diff` -- the differential harness (every engine and
  trace mode, snapshot/restore/replay, AES data paths);
* :mod:`repro.fuzz.oracle` -- structural predictor invariants checked
  independently of any twin comparison;
* :mod:`repro.fuzz.shrink` -- ddmin delta-debugging to a minimal
  reproducer;
* :mod:`repro.fuzz.corpus` -- persisted pytest reproducers under
  ``tests/corpus/``;
* :mod:`repro.fuzz.mutations` -- deliberate predictor perturbations for
  the is-the-fuzzer-alive self-test;
* :mod:`repro.fuzz.cli` -- the ``python -m repro.fuzz`` campaign driver.
"""

from repro.fuzz.corpus import FailureCase, write_reproducer
from repro.fuzz.diff import (
    Divergence,
    check_aes_data_paths,
    check_program,
    run_arm,
)
from repro.fuzz.generator import (
    FuzzProgram,
    GeneratorConfig,
    PROFILES,
    build_program,
    generate_program,
    rebuild,
)
from repro.fuzz.mutations import MUTATORS, get_mutator
from repro.fuzz.oracle import (
    InvariantOracle,
    InvariantViolation,
    check_fast_invariants,
    check_structural_invariants,
)
from repro.fuzz.shrink import ddmin_positions, shrink

__all__ = [
    "Divergence",
    "FailureCase",
    "FuzzProgram",
    "GeneratorConfig",
    "InvariantOracle",
    "InvariantViolation",
    "MUTATORS",
    "PROFILES",
    "build_program",
    "check_aes_data_paths",
    "check_fast_invariants",
    "check_program",
    "check_structural_invariants",
    "ddmin_positions",
    "generate_program",
    "get_mutator",
    "rebuild",
    "run_arm",
    "shrink",
    "write_reproducer",
]
