"""Section 4.2 evaluation: Write_PHR + Read_PHR round trips.

Paper: "we initialized the PHR value to a predetermined state and read it
back ... repeated this process with 1000 randomly generated PHR values,
and the Read_PHR macro successfully retrieved the intended PHR values in
all cases."

The full 194-doublet read is exercised once; the 1000-value sweep reads a
16-doublet window per value (each window read exercises the identical
per-doublet protocol; the scale-down trades wall-clock for trial count
and is recorded in EXPERIMENTS.md).

A second experiment measures the prefix-replay engine: the same read of
a branch-heavy loop victim through ``PhrReader`` (``checkpoint``: run
the victim once, restore a machine checkpoint per guess) versus
``repro.fuzz.twins.NaivePhrReader`` (``none``: re-run the whole prefix,
victim and all, per guess).
The two must agree bit for bit; quick mode asserts the >=3x floor.
"""

import time

from repro.cpu import Machine, PREDICTOR_LAB_MACHINES, RAPTOR_LAKE
from repro.fuzz.twins import NaivePhrReader
from repro.isa import ProgramBuilder
from repro.primitives import PhrMacros, PhrReader, VictimHandle
from repro.primitives.matrix import measure_read_primitive
from repro.utils.rng import DeterministicRng

from conftest import BENCH_QUICK, operation_count, print_table

SWEEP_TRIALS = 100
SWEEP_DOUBLETS = 16

#: The replay experiment: doublets to read and victim loop iterations
#: (~one taken conditional commit each -- the prefix the engine saves).
REPLAY_DOUBLETS = operation_count(12, 4)
REPLAY_LOOP_ITERATIONS = 1200


class PlantedVictim:
    """A victim whose only act is installing a chosen PHR value."""

    def __init__(self, macros: PhrMacros):
        self.macros = macros
        self.value = 0

    def invoke(self, thread: int = 0) -> None:
        self.macros.apply_write(self.value, thread=thread)


def run_roundtrips():
    machine = Machine(RAPTOR_LAKE)
    macros = PhrMacros(machine)
    victim = PlantedVictim(macros)
    rng = DeterministicRng(0x42EAD)

    # One full-width read.
    victim.value = rng.value_bits(388)
    full_reader = PhrReader(machine, victim, rng=rng.fork(0))
    full_result = full_reader.read()
    full_ok = full_result.value == victim.value

    # The sweep.
    successes = 0
    for trial in range(SWEEP_TRIALS):
        victim.value = rng.value_bits(388)
        reader = PhrReader(machine, victim, rng=rng.fork(trial + 1))
        result = reader.read(count=SWEEP_DOUBLETS)
        expected = victim.value & ((1 << (2 * SWEEP_DOUBLETS)) - 1)
        successes += result.value == expected
    return full_ok, successes


def test_sec4_read_phr_roundtrips(benchmark):
    full_ok, successes = benchmark.pedantic(run_roundtrips, rounds=1,
                                            iterations=1)
    print_table(
        "Section 4.2 -- Read_PHR evaluation",
        ["experiment", "paper", "measured"],
        [
            ["full 194-doublet round trip", "success",
             "success" if full_ok else "FAILED"],
            [f"random-value sweep ({SWEEP_TRIALS} trials, "
             f"{SWEEP_DOUBLETS}-doublet window)",
             "1000/1000 retrieved", f"{successes}/{SWEEP_TRIALS} retrieved"],
        ],
    )
    assert full_ok
    assert successes == SWEEP_TRIALS
    benchmark.extra_info["sweep_success"] = successes


# ----------------------------------------------------------------------
# prefix-replay speedup (ISSUE 5 tentpole gate)
# ----------------------------------------------------------------------

def build_replay_victim():
    """A victim whose invocation cost dominates the per-guess suffix."""
    b = ProgramBuilder("replay_victim", base=0x410000)
    b.mov_imm("rcx", REPLAY_LOOP_ITERATIONS)
    b.label("loop")
    b.sub("rcx", imm=1, set_flags=True)
    b.jne("loop")
    b.ret()
    return b.build()


def run_replay_arms():
    program = build_replay_victim()
    arms = {}
    for reuse, reader_class in (("checkpoint", PhrReader),
                                ("none", NaivePhrReader)):
        machine = Machine(RAPTOR_LAKE)
        reader = reader_class(machine, VictimHandle(machine, program),
                              rng=DeterministicRng(0x42EAD).fork(99))
        start = time.perf_counter()
        result = reader.read(count=REPLAY_DOUBLETS)
        arms[reuse] = {
            "elapsed": time.perf_counter() - start,
            "doublets": result.doublets,
            "confidence": result.confidence,
            "stats": reader.replay.stats.as_dict(),
        }
    return arms


def test_sec4_read_phr_replay_speedup(benchmark):
    arms = benchmark.pedantic(run_replay_arms, rounds=1, iterations=1)
    checkpoint, none = arms["checkpoint"], arms["none"]
    speedup = none["elapsed"] / checkpoint["elapsed"]

    print_table(
        f"Section 4.2 -- Read_PHR prefix replay "
        f"({REPLAY_DOUBLETS} doublets, {REPLAY_LOOP_ITERATIONS}-commit "
        f"victim, {'quick' if BENCH_QUICK else 'full'} mode)",
        ["reuse policy", "time", "victim runs", "speedup"],
        [
            ["none (re-run prefix per guess)", f"{none['elapsed']:.3f}s",
             none["stats"]["prefix_runs"], "1.00x"],
            ["checkpoint (restore per guess)",
             f"{checkpoint['elapsed']:.3f}s",
             checkpoint["stats"]["prefix_runs"], f"{speedup:.2f}x"],
        ],
    )

    # The twins must agree bit for bit -- same doublets, same observed
    # misprediction rates -- before any speedup claim counts.
    assert checkpoint["doublets"] == none["doublets"]
    assert checkpoint["confidence"] == none["confidence"]
    # The engine ran the victim once; the naive twin once at checkpoint
    # declaration plus once per evaluation.
    assert checkpoint["stats"]["prefix_runs"] == 1
    assert none["stats"]["prefix_runs"] == 4 * REPLAY_DOUBLETS + 1

    # ISSUE 5 acceptance gate: >=3x in quick mode (the CI configuration).
    if BENCH_QUICK:
        assert speedup >= 3.0, (
            f"replay-backed read only {speedup:.2f}x over the naive twin")

    benchmark.extra_info.update({
        "replay_speedup": round(speedup, 2),
        "checkpoint_s": round(checkpoint["elapsed"], 4),
        "none_s": round(none["elapsed"], 4),
        "doublets": REPLAY_DOUBLETS,
        "victim_commits": REPLAY_LOOP_ITERATIONS,
    })


# ----------------------------------------------------------------------
# cross-architecture backend matrix (sec4 read channel, all families)
# ----------------------------------------------------------------------

MATRIX_TRAIN_ROUNDS = operation_count(24, 10)
MATRIX_TEST_ROUNDS = operation_count(8, 4)


def run_backend_matrix():
    return [
        measure_read_primitive(config,
                               train_rounds=MATRIX_TRAIN_ROUNDS,
                               test_rounds=MATRIX_TEST_ROUNDS)
        for config in PREDICTOR_LAB_MACHINES
    ]


def test_sec4_read_primitive_backend_matrix(benchmark):
    """The read channel's enabling property, measured on every family.

    The full Read_PHR protocol above is Intel-specific; the property it
    exploits -- the predictor disambiguates branch history -- is not.
    This arm scores that property on every registered backend and emits
    the per-backend matrix record.
    """
    results = benchmark.pedantic(run_backend_matrix, rounds=1, iterations=1)
    print_table(
        "Section 4 read primitive -- per-backend history disambiguation",
        ["backend", "accuracy", "blind floor", "contrast"],
        [[r.model_id, f"{r.accuracy:.3f}", f"{r.blind_floor:.3f}",
          f"{r.contrast:+.3f}"] for r in results],
    )
    assert sorted(r.model_id for r in results) == sorted(
        c.predictor_model for c in PREDICTOR_LAB_MACHINES)
    for result in results:
        assert result.contrast >= 0.3, (
            f"{result.model_id}: no usable read channel "
            f"(accuracy {result.accuracy:.3f} vs floor "
            f"{result.blind_floor:.3f})")
    benchmark.extra_info["backend_matrix"] = [r.as_row() for r in results]
