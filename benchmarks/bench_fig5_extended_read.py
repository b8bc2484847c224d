"""Figure 5 / Section 5 evaluation: Extended Read PHR.

Paper: "In an extensive series of tests encompassing 1000 cases with
varying numbers of taken branches (ranging from 194 to 1000), our
experiments consistently demonstrated that the Extended_Read_PHR
primitive successfully reads the entire control flow history ... unless
there are more than 194 consecutive unconditional taken branches."

The sweep here runs 40 victims spanning the same 194..1000 range (scale
recorded in EXPERIMENTS.md), plus the single-doublet Figure 5 signature
and the consecutive-unconditional failure mode.

The replay experiment reads one history with order-independent probes
(``reset_between_probes=True``) two ways: ``ExtendedPhrReader``
(``checkpoint``) restores the primed machine per candidate probe and
refreshes only the probed entry;
``repro.fuzz.twins.NaiveExtendedPhrReader`` (``none``) re-commits the
full history on every probe round.  Bit-identical results, >=3x floor
in quick mode.
"""

import time

from repro.cpu import Machine, RAPTOR_LAKE
from repro.cpu.phr import PathHistoryRegister
from repro.fuzz.twins import NaiveExtendedPhrReader
from repro.primitives import ExtendedPhrReader, TakenBranch
from repro.utils.rng import DeterministicRng

from conftest import BENCH_QUICK, operation_count, print_table

SWEEP_CASES = 40

#: Taken-branch count for the replay-policy twin read.
REPLAY_COUNT = operation_count(240, 206)


def random_branches(count, seed, conditional_probability=0.8):
    rng = DeterministicRng(seed)
    branches = []
    pc = 0x40_0000
    for _ in range(count):
        pc += rng.integer(1, 4000) * 4
        target = pc + rng.integer(1, 2000) * 4
        conditional = rng.integer(1, 100) <= conditional_probability * 100
        branches.append(TakenBranch(pc, target, conditional))
    return branches


def truth_doublets(branches):
    register = PathHistoryRegister(len(branches))
    for branch in branches:
        register.update(branch.pc, branch.target)
    return register.doublets()


def run_sweep():
    rng = DeterministicRng(0xE5)
    successes = 0
    total_probes = 0
    lengths = []
    for case in range(SWEEP_CASES):
        count = rng.integer(194, 1000)
        lengths.append(count)
        branches = random_branches(count, seed=case + 1)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE), rounds=6)
        result = reader.read(branches)
        total_probes += result.probes
        if result.complete and result.doublets == truth_doublets(branches):
            successes += 1
    return successes, lengths, total_probes


def run_doublet_194_signature():
    """The Figure 5 single-step: recover exactly doublet 194."""
    branches = random_branches(195, seed=777, conditional_probability=1.0)
    reader = ExtendedPhrReader(Machine(RAPTOR_LAKE))
    result = reader.read(branches)
    truth = truth_doublets(branches)
    return result.doublets[194] == truth[194]


def run_failure_mode():
    branches = random_branches(450, seed=999, conditional_probability=1.0)
    start = 230
    for index in range(start, start + 210):
        branch = branches[index]
        branches[index] = TakenBranch(branch.pc, branch.target, False)
    reader = ExtendedPhrReader(Machine(RAPTOR_LAKE), max_gap=194)
    return reader.read(branches).complete


def test_fig5_extended_read(benchmark):
    successes, lengths, probes = benchmark.pedantic(run_sweep, rounds=1,
                                                    iterations=1)
    signature_ok = run_doublet_194_signature()
    failure_complete = run_failure_mode()

    print_table(
        "Figure 5 / Section 5 -- Extended Read PHR",
        ["experiment", "paper", "measured"],
        [
            ["doublet-194 recovery (Figure 5)", "recovered",
             "recovered" if signature_ok else "FAILED"],
            [f"history sweep, {min(lengths)}..{max(lengths)} taken branches "
             f"({SWEEP_CASES} cases)", "1000/1000 full recovery",
             f"{successes}/{SWEEP_CASES} full recovery"],
            ["> 194 consecutive unconditional branches",
             "recovery impossible",
             "recovery failed" if not failure_complete else "UNEXPECTED"],
        ],
    )
    print(f"total collision probes: {probes}")

    assert signature_ok
    assert successes == SWEEP_CASES
    assert not failure_complete
    benchmark.extra_info["sweep_success"] = successes
    benchmark.extra_info["probes"] = probes


# ----------------------------------------------------------------------
# prefix-replay speedup (ISSUE 5 tentpole gate)
# ----------------------------------------------------------------------

def run_replay_arms():
    branches = random_branches(REPLAY_COUNT, seed=7)
    arms = {}
    for reuse, reader_class in (("checkpoint", ExtendedPhrReader),
                                ("none", NaiveExtendedPhrReader)):
        reader = reader_class(Machine(RAPTOR_LAKE),
                              reset_between_probes=True)
        start = time.perf_counter()
        result = reader.read(branches)
        arms[reuse] = {
            "elapsed": time.perf_counter() - start,
            "doublets": result.doublets,
            "complete": result.complete,
            "probes": result.probes,
        }
    return arms, truth_doublets(branches)


def test_fig5_extended_read_replay_speedup(benchmark):
    arms, truth = benchmark.pedantic(run_replay_arms, rounds=1, iterations=1)
    checkpoint, none = arms["checkpoint"], arms["none"]
    speedup = none["elapsed"] / checkpoint["elapsed"]

    print_table(
        f"Section 5 -- Extended Read prefix replay ({REPLAY_COUNT} taken "
        f"branches, {'quick' if BENCH_QUICK else 'full'} mode)",
        ["reuse policy", "time", "probes", "speedup"],
        [
            ["none (rebuild state per probe)", f"{none['elapsed']:.3f}s",
             none["probes"], "1.00x"],
            ["checkpoint (restore per probe)",
             f"{checkpoint['elapsed']:.3f}s", checkpoint["probes"],
             f"{speedup:.2f}x"],
        ],
    )

    # Bit-identical twins, and both correct against the ground truth.
    assert checkpoint["complete"] and none["complete"]
    assert checkpoint["doublets"] == none["doublets"] == truth
    assert checkpoint["probes"] == none["probes"]

    if BENCH_QUICK:
        assert speedup >= 3.0, (
            f"replay-backed extended read only {speedup:.2f}x "
            f"over the naive twin")

    benchmark.extra_info.update({
        "replay_speedup": round(speedup, 2),
        "checkpoint_s": round(checkpoint["elapsed"], 4),
        "none_s": round(none["elapsed"], 4),
        "taken_branches": REPLAY_COUNT,
    })
