"""Cross-architecture predictor matrix: read/write primitives per family.

The paper's primitives target the Intel CBP (machines 1-3); this
benchmark runs the family-generic distillations of the Section 4 read
channel and the Section 6 write channel
(:mod:`repro.primitives.matrix`) across every registered predictor
backend -- the reverse-engineered Intel CBP, the M1-style PHR variant,
and the gshare/tournament baseline -- and emits one result matrix into
``benchmarks/results/predictor_matrix.json``.

Reproduction-level facts asserted:

* every family disambiguates branch history far above the
  history-blind floor (the property that makes a history read channel
  exist at all), and
* every family accepts a planted (PC, history) prediction and keeps it
  history-specific -- the tagged tables via tags, the tournament via
  its chooser learning to trust the history-indexed gshare component.

The per-family rows land under ``extra.matrix`` in the results record
(EXPERIMENTS.md, cross-architecture matrix).
"""

from repro.cpu import PREDICTOR_LAB_MACHINES
from repro.primitives.matrix import (
    measure_read_primitive,
    measure_write_primitive,
)

from conftest import operation_count, print_table

#: Scaled workloads: (full, quick).
READ_TRAIN_ROUNDS = operation_count(24, 10)
READ_TEST_ROUNDS = operation_count(8, 4)
WRITE_PLANTS = operation_count(16, 6)
WRITE_PROBES = operation_count(16, 8)


def run_read_matrix():
    return [
        measure_read_primitive(config,
                               train_rounds=READ_TRAIN_ROUNDS,
                               test_rounds=READ_TEST_ROUNDS)
        for config in PREDICTOR_LAB_MACHINES
    ]


def run_write_matrix():
    return [
        measure_write_primitive(config,
                                plants=WRITE_PLANTS,
                                probes_per_plant=WRITE_PROBES)
        for config in PREDICTOR_LAB_MACHINES
    ]


def test_predictor_matrix_read_primitive(benchmark):
    results = benchmark.pedantic(run_read_matrix, rounds=1, iterations=1)
    print_table(
        "Cross-architecture matrix -- sec4 read primitive "
        "(history disambiguation)",
        ["backend", "accuracy", "blind floor", "contrast"],
        [[r.model_id, f"{r.accuracy:.3f}", f"{r.blind_floor:.3f}",
          f"{r.contrast:+.3f}"] for r in results],
    )
    for result in results:
        assert result.accuracy >= 0.9, (
            f"{result.model_id} failed to learn the paths: "
            f"{result.accuracy:.3f}")
        assert result.contrast >= 0.3, (
            f"{result.model_id} barely beats a history-blind predictor")
    benchmark.extra_info["matrix"] = {
        "read_primitive": [r.as_row() for r in results]}


def test_predictor_matrix_write_primitive(benchmark):
    results = benchmark.pedantic(run_write_matrix, rounds=1, iterations=1)
    print_table(
        "Cross-architecture matrix -- sec6 write primitive "
        "(plant-then-predict)",
        ["backend", "planted rate", "specificity"],
        [[r.model_id, f"{r.planted_rate:.3f}", f"{r.specificity:.3f}"]
         for r in results],
    )
    for result in results:
        assert result.planted_rate == 1.0, (
            f"{result.model_id} dropped planted predictions: "
            f"{result.planted_rate:.3f}")
        assert result.specificity >= 0.9, (
            f"{result.model_id} leaks planted state across histories: "
            f"{result.specificity:.3f}")
    benchmark.extra_info["matrix"] = {
        "write_primitive": [r.as_row() for r in results]}
