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

The third arm sweeps the read primitive through the vectorized batch
engine (:func:`repro.primitives.matrix.measure_read_primitive_batch`)
for *every* registered family -- the per-family batch backends of
:mod:`repro.batch.backends` -- pins the per-replica accuracies
bit-identical to the scalar sweep on an untimed first call, and gates
each family >= 3x over scalar.  Each speedup is the median of paired
rounds (``conftest.paired_speedup``), with each arm's median and IQR in
seconds recorded next to it.  The per-family ``*_read_batch_speedup``
keys land in the results record's ``speedups`` dict, where
``benchmarks/check_regression.py`` tracks them across runs.
"""

import time

from repro.cpu import PREDICTOR_LAB_MACHINES
from repro.primitives.matrix import (
    measure_read_primitive,
    measure_read_primitive_batch,
    measure_write_primitive,
)

from conftest import BENCH_QUICK, operation_count, paired_speedup, print_table

#: Scaled workloads: (full, quick).
READ_TRAIN_ROUNDS = operation_count(24, 10)
READ_TEST_ROUNDS = operation_count(8, 4)
WRITE_PLANTS = operation_count(16, 6)
WRITE_PROBES = operation_count(16, 8)
#: Replica count for the batch-vs-scalar read sweep.
BATCH_REPLICAS = operation_count(128, 96)
#: Floor asserted on every family's batch-over-scalar speedup.
BATCH_SPEEDUP_FLOOR = 3.0
#: Paired rounds behind each family's recorded speedup (the median ratio).
SPEEDUP_ROUNDS = 5


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


def run_batch_speedup_matrix(extra_info):
    """Per-family ``(model id, scalar seconds, batch seconds, speedup)``.

    Each family's batch sweep must be its scalar sweep, only faster:
    an untimed first call pins replica r of the batch bit-identical to
    the scalar run seeded ``0x5EC4 + r``.  The speedup is then the
    median of paired rounds (``conftest.paired_speedup``).
    """
    rows = []
    for config in PREDICTOR_LAB_MACHINES:
        model_id = config.predictor_model

        def scalar():
            return [measure_read_primitive(config,
                                           train_rounds=READ_TRAIN_ROUNDS,
                                           test_rounds=READ_TEST_ROUNDS,
                                           seed=0x5EC4 + r)
                    for r in range(BATCH_REPLICAS)]

        def batch():
            return measure_read_primitive_batch(
                config, BATCH_REPLICAS,
                train_rounds=READ_TRAIN_ROUNDS,
                test_rounds=READ_TEST_ROUNDS)

        scalar_results, batch_results = scalar(), batch()
        assert len(batch_results) == BATCH_REPLICAS
        for r, (scalar_r, batch_r) in enumerate(
                zip(scalar_results, batch_results)):
            assert batch_r.accuracy == scalar_r.accuracy, (
                f"{model_id} replica {r} diverged from scalar: "
                f"batch={batch_r.accuracy:.4f} "
                f"scalar={scalar_r.accuracy:.4f}")
        prefix = f"{model_id.replace('-', '_')}_read_batch"
        speedup = paired_speedup(batch, scalar, extra_info, prefix,
                                 SPEEDUP_ROUNDS)
        extra_info[f"{prefix}_speedup"] = speedup
        rows.append((model_id, extra_info[f"{prefix}_slow_median_s"],
                     extra_info[f"{prefix}_fast_median_s"], speedup))
    return rows


def test_predictor_matrix_batch_speedup(benchmark):
    start = time.perf_counter()
    rows = benchmark.pedantic(run_batch_speedup_matrix,
                              args=(benchmark.extra_info,),
                              rounds=1, iterations=1)
    wall_s = time.perf_counter() - start
    print_table(
        f"Cross-architecture matrix -- batch vs scalar read sweep "
        f"(n={BATCH_REPLICAS}, median of {SPEEDUP_ROUNDS} paired rounds, "
        f"{'quick' if BENCH_QUICK else 'full'} mode, {wall_s:.1f}s wall)",
        ["backend", "scalar ms", "batch ms", "speedup"],
        [[model_id, f"{scalar_s * 1e3:.1f}", f"{batch_s * 1e3:.1f}",
          f"{speedup:.2f}x"]
         for model_id, scalar_s, batch_s, speedup in rows],
    )
    for model_id, _, _, speedup in rows:
        assert speedup >= BATCH_SPEEDUP_FLOOR, (
            f"{model_id} batch backend is only {speedup:.2f}x over scalar "
            f"(floor {BATCH_SPEEDUP_FLOOR:.1f}x)")
