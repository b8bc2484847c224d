"""Library performance: simulator operation throughput.

Not a paper artifact -- these measure the reproduction's own substrate so
regressions in the hot paths (branch commit, CBP lookup, PHR update,
cache access, victim interpretation) are visible.  The attack benchmarks'
wall-clock budgets all derive from these numbers.
"""

import time

from repro.aes.victim import AesVictim
from repro.cpu import Machine, RAPTOR_LAKE
from repro.cpu.footprint import branch_footprint, branch_footprint_reference
from repro.cpu.pht import TaggedTable
from repro.fuzz.twins import ReferenceAesVictim, ReferenceMachine
from repro.cpu.phr import PathHistoryRegister
from repro.isa import ProgramBuilder
from repro.isa.memory import Memory
from repro.jpeg import IdctVictim, JpegCodec
from repro.jpeg.images import gradient
from repro.utils.rng import DeterministicRng

from conftest import operation_count, paired_speedup

OPERATIONS = operation_count(5_000, 500)

#: End-to-end Machine.run repetitions for the victim benchmarks.  The
#: quick counts keep each fast arm above ~50 ms on a 2-vCPU host, so a
#: scheduler hiccup is a small share of one timing.
AES_RUNS = operation_count(300, 150)
IDCT_RUNS = operation_count(20, 15)
#: Paired rounds behind each end-to-end speedup (the median ratio).
SPEEDUP_ROUNDS = 5

_AES_KEY = bytes(range(16))
_AES_PLAINTEXT = bytes(range(16, 32))


def bench_phr_updates():
    phr = PathHistoryRegister(194)
    for i in range(OPERATIONS):
        phr.update(0x41F2C4 + 4 * i, 0x41F300 + 64 * i)
    return phr.value


def bench_cbp_observes():
    machine = Machine(RAPTOR_LAKE)
    rng = DeterministicRng(1)
    phr = machine.phr(0)
    for i in range(OPERATIONS):
        phr.set_value(rng.value_bits(388))
        machine.observe_conditional(0x40AC00 + 4 * (i % 64), 0x40B000,
                                    rng.coin())
    return machine.perf.conditional_branches


def bench_cache_accesses():
    machine = Machine(RAPTOR_LAKE)
    for i in range(OPERATIONS):
        machine.cache.access(0x2000_0000 + (i % 512) * 4096)
    return machine.cache.hits


def bench_interpreted_branches():
    builder = ProgramBuilder("spin", base=0x400000)
    builder.mov_imm("rcx", OPERATIONS // 2)
    builder.label("loop")
    builder.sub("rcx", imm=1, set_flags=True)
    builder.jne("loop")
    builder.halt()
    machine = Machine(RAPTOR_LAKE)
    result = machine.run(builder.build())
    return result.perf.conditional_branches


def test_phr_update_throughput(benchmark):
    benchmark.pedantic(bench_phr_updates, rounds=5, iterations=1)
    benchmark.extra_info["operations"] = OPERATIONS


def test_cbp_observe_throughput(benchmark):
    benchmark.pedantic(bench_cbp_observes, rounds=3, iterations=1)
    benchmark.extra_info["operations"] = OPERATIONS


def test_cache_access_throughput(benchmark):
    benchmark.pedantic(bench_cache_accesses, rounds=5, iterations=1)
    benchmark.extra_info["operations"] = OPERATIONS


def test_interpreter_branch_throughput(benchmark):
    count = benchmark.pedantic(bench_interpreted_branches, rounds=3,
                               iterations=1)
    assert count == OPERATIONS // 2
    benchmark.extra_info["branches"] = count


def _best_of(measured, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        measured()
        best = min(best, time.perf_counter() - start)
    return best


def test_hot_path_reference_speedup(benchmark):
    """The shipped fast paths vs. their retained reference twins.

    DESIGN.md decision 5 replaces the per-bit footprint loop with LUTs
    and the per-lookup chunked history folds with cached binary folds;
    the definitional loops stay behind as ``*_reference``.  This records
    the resulting speedups in the bench trajectory (and sanity-asserts
    they stay comfortably above 1x -- the equivalence tests in
    tests/test_shortcut_equivalence.py pin the values bit-identical).
    """
    def footprint_fast():
        for i in range(OPERATIONS):
            branch_footprint(0x41F2C4 + 4 * i, 0x41F300 + 64 * i)

    def footprint_reference():
        for i in range(OPERATIONS):
            branch_footprint_reference(0x41F2C4 + 4 * i, 0x41F300 + 64 * i)

    rng = DeterministicRng(7)
    table = TaggedTable(history_doublets=194)
    phrs = [PathHistoryRegister(194, rng.value_bits(388))
            for _ in range(max(OPERATIONS // 10, 50))]

    def hash_fast():
        for phr in phrs:
            table.index(0x40AC00, phr)
            table.tag(0x40AC00, phr)

    def hash_reference():
        for phr in phrs:
            table._reference_index(0x40AC00, phr)
            table._reference_tag(0x40AC00, phr)

    benchmark.pedantic(footprint_fast, rounds=3, iterations=1)
    footprint_speedup = _best_of(footprint_reference) / max(
        _best_of(footprint_fast), 1e-9)
    hash_speedup = _best_of(hash_reference) / max(_best_of(hash_fast), 1e-9)
    benchmark.extra_info["operations"] = OPERATIONS
    benchmark.extra_info["footprint_speedup"] = round(footprint_speedup, 1)
    benchmark.extra_info["hash_speedup"] = round(hash_speedup, 1)
    assert footprint_speedup > 2
    assert hash_speedup > 2


# ----------------------------------------------------------------------
# end-to-end Machine.run throughput (predecoded engine vs. seed path)
# ----------------------------------------------------------------------

def bench_machine_run_aes(victim: AesVictim, machine: Machine,
                          memory: Memory, trace: str,
                          runs: int = AES_RUNS) -> int:
    """Drive ``runs`` full AES encryptions through one Machine.

    Returns the total committed instruction count (identical across
    engine/trace/data-path configurations -- the equivalence tests pin
    that, and the benchmark re-asserts it).  The victim and machine are
    built by the caller (their classes pick the data path and engine),
    so the one-time cost (key schedule, assembly, predecode) stays
    outside the timed region.
    """
    executed = 0
    for _ in range(runs):
        victim.provision(memory, _AES_PLAINTEXT)
        result = machine.run(victim.program, memory=memory, trace=trace)
        executed += result.execution.instructions
    return executed


def bench_machine_run_idct(victim: IdctVictim, blocks, machine: Machine,
                           memory: Memory, trace: str,
                           runs: int = IDCT_RUNS) -> int:
    """Drive ``runs`` IDCT decodes (Listing 2 inner loops) end to end."""
    entry = victim.program.address_of("idct")
    executed = 0
    for _ in range(runs):
        victim.provision(memory, blocks)
        result = machine.run(victim.program, memory=memory, entry=entry,
                             max_instructions=20_000_000, trace=trace)
        executed += result.execution.instructions
    return executed


def test_machine_run_aes_throughput(benchmark):
    """End-to-end ``Machine.run`` over the looped AES victim.

    The shipped configuration (predecoded engine, ``trace='none'``,
    table-based AES data path) against the seed-equivalent baseline
    (dispatch-loop reference engine, full trace, byte-at-a-time
    definitional AES rounds -- ``ReferenceMachine`` and
    ``ReferenceAesVictim`` from :mod:`repro.fuzz.twins`).  The two halves
    of each pair are pinned
    bit-identical by tests/test_interpreter_equivalence.py and
    tests/test_aes_core.py; this benchmark records the speedup the fast
    halves buy and enforces the 3x floor the optimisation targeted.
    """
    fast_victim = AesVictim(_AES_KEY)
    seed_victim = ReferenceAesVictim(_AES_KEY)
    fast_machine = Machine(RAPTOR_LAKE)
    seed_machine = ReferenceMachine(RAPTOR_LAKE)
    fast_memory, seed_memory = Memory(), Memory()

    def fast():
        return bench_machine_run_aes(fast_victim, fast_machine,
                                     fast_memory, "none")

    def seed_equivalent():
        return bench_machine_run_aes(seed_victim, seed_machine,
                                     seed_memory, "full")

    executed = benchmark.pedantic(fast, rounds=3, iterations=1)
    info = benchmark.extra_info
    speedup = paired_speedup(fast, seed_equivalent, info, "run",
                             SPEEDUP_ROUNDS)
    info["runs"] = AES_RUNS
    info["instructions_per_second"] = int(
        executed / max(info["run_fast_median_s"], 1e-9))
    info["speedup_vs_reference"] = round(speedup, 2)
    assert executed == seed_equivalent()
    assert speedup >= 3


def test_machine_run_idct_throughput(benchmark):
    """End-to-end ``Machine.run`` over the libjpeg IDCT victim.

    The IDCT PyOps have no separate data-path twin, so the recorded
    speedup isolates the predecoded engine + trace suppression alone;
    it is informational (asserted above parity, not above 3x).
    """
    codec = JpegCodec()
    blocks = codec.decode_to_blocks(codec.encode(gradient(16)))
    victim = IdctVictim()
    fast_machine = Machine(RAPTOR_LAKE)
    ref_machine = ReferenceMachine(RAPTOR_LAKE)
    fast_memory, ref_memory = Memory(), Memory()

    def fast():
        return bench_machine_run_idct(victim, blocks, fast_machine,
                                      fast_memory, "none")

    def reference():
        return bench_machine_run_idct(victim, blocks, ref_machine,
                                      ref_memory, "full")

    executed = benchmark.pedantic(fast, rounds=3, iterations=1)
    info = benchmark.extra_info
    speedup = paired_speedup(fast, reference, info, "run", SPEEDUP_ROUNDS)
    info["runs"] = IDCT_RUNS
    info["instructions_per_second"] = int(
        executed / max(info["run_fast_median_s"], 1e-9))
    info["speedup_vs_reference"] = round(speedup, 2)
    assert executed == reference()
    assert speedup > 1
