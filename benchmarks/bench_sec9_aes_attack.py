"""Section 9: leaking AES keys via speculative early loop exits.

Paper evaluation: "our attack is capable of speculatively terminating the
victim loop at any iteration, in this case ranging from the first to one
less than the total number of rounds.  We rigorously test all of these
... We repeat this process 1000 times and calculate the average success
rate.  On average, the attack succeeds with a probability of 98.43%."

The sweep here runs 20 trials per exit iteration (9 x 20 = 180 attacked
invocations; scale recorded in EXPERIMENTS.md), then performs one full
key recovery from iteration-1 exits.  The sweep fans out through the
trial harness (worker count from ``REPRO_WORKERS``, default serial;
results are bit-identical either way); the key recovery runs serially.
A per-layer arm times the attack's Flush+Reload sweep (restore, then
reload the 4,096-slot probe array) on the production cache against the
eager twin.
"""

from repro.aes import AesAttackSpec, AesSpectreAttack, build_attack
from repro.aes.oracle import PROBE_BASE, PROBE_SLOTS, PROBE_STRIDE
from repro.channels import FlushReloadChannel
from repro.cpu import Machine, RAPTOR_LAKE
from repro.cpu.cache import DataCache
from repro.fuzz.twins import EagerDataCache
from repro.harness import run_trials
from repro.utils.rng import DeterministicRng

from conftest import operation_count, paired_speedup, print_table

TRIALS_PER_ITERATION = 20
#: Leak reloads per arm and round of the Flush+Reload layer benchmark.
RELOADS = operation_count(1000, 300)


def _success_arm(context, index, rng):
    """One exit iteration's sweep: a fresh attack, accumulated PHT state.

    The per-arm machine keeps evolving across its trials (the realistic
    channel-ambiguity regime behind the paper's sub-100% rate); the arms
    themselves are independent, so the harness can fan them out.
    """
    exit_iteration = index + 1
    key = DeterministicRng(0xAE5).bytes(16)
    attack = AesSpectreAttack(Machine(RAPTOR_LAKE), key, rng=rng.fork(1))
    total = 0.0
    for _ in range(TRIALS_PER_ITERATION):
        total += attack.success_rate(rng.bytes(16), exit_iteration)
    return total / TRIALS_PER_ITERATION


def run_success_sweep(workers=None):
    report = run_trials(_success_arm, 9, workers=workers, chunk_size=1,
                        seed=0xAE5)
    return {index + 1: rate for index, rate in enumerate(report.values)}


def run_key_recovery():
    rng = DeterministicRng(0x4B)
    key = rng.bytes(16)
    spec = AesAttackSpec(key=key, rng_seed=rng.fork(2).seed)
    recovered = build_attack(spec).recover_key()
    return recovered == key, len(key)


def test_sec9_reduced_round_success_rate(benchmark):
    rates = benchmark.pedantic(run_success_sweep, rounds=1, iterations=1)
    average = sum(rates.values()) / len(rates)
    rows = [[f"exit @ iteration {i}", "-", f"{rates[i]:.2%}"]
            for i in sorted(rates)]
    rows.append(["average byte success rate", "98.43%", f"{average:.2%}"])
    print_table(
        "Section 9 -- reduced-round ciphertext leak "
        f"({TRIALS_PER_ITERATION} trials x 9 iterations)",
        ["experiment", "paper", "measured"], rows,
    )
    # The simulator should meet or exceed the paper's 98.43% average (its
    # residual losses come from channel ambiguity under accumulated PHT
    # state, the same effect behind the paper's sub-100% rate).
    assert average >= 0.9843
    for iteration, rate in rates.items():
        assert rate >= 0.90, f"iteration {iteration}"
    benchmark.extra_info["average_success"] = average


def test_sec9_full_key_recovery(benchmark):
    matched, key_bytes = benchmark.pedantic(run_key_recovery, rounds=1,
                                            iterations=1)
    print_table(
        "Section 9 -- end-to-end AES-128 key extraction",
        ["experiment", "paper", "measured"],
        [["differential recovery from 2-round ciphertexts",
          "key recovered", "key recovered" if matched else "FAILED"],
         ["key bytes", "16", str(key_bytes)]],
    )
    assert matched
    benchmark.extra_info["key_recovered"] = matched


def run_equality_channel():
    """The paper's second recovery option: a one-bit equality oracle."""
    from repro.aes.core import reduced_round_ciphertext
    from repro.aes.equality_oracle import EqualityLeakAttack
    from repro.aes.keyschedule import expand_key
    from repro.aes.modes import ecb_encrypt

    rng = DeterministicRng(0xE0)
    key = rng.bytes(16)
    round_keys = expand_key(key)
    position = 0
    exit_iteration = 1
    plaintexts = [rng.bytes(16) for _ in range(16)]
    constant = reduced_round_ciphertext(plaintexts[0], round_keys,
                                        exit_iteration)[position]

    attack = EqualityLeakAttack(Machine(RAPTOR_LAKE), key, position,
                                constant)
    detected = attack.collect_matches(plaintexts, exit_iteration)
    expected = [
        p for p in plaintexts
        if reduced_round_ciphertext(p, round_keys,
                                    exit_iteration)[position] == constant
        and ecb_encrypt(p, key)[position] != constant
    ]
    return detected, expected


def test_sec9_equality_oracle_channel(benchmark):
    detected, expected = benchmark.pedantic(run_equality_channel, rounds=1,
                                            iterations=1)
    print_table(
        "Section 9 -- one-bit equality-leak oracle "
        "(repeat with random inputs)",
        ["experiment", "paper", "measured"],
        [["transient byte == constant events detected",
          "detectable via a single cache line",
          f"{len(detected)}/{len(expected)} events, no false positives"
          if detected == expected else "MISMATCH"]],
    )
    assert detected == expected
    assert detected  # the seeded constant guarantees at least one event
    benchmark.extra_info["events"] = len(detected)


def _post_victim_cache():
    """The cache snapshot a leak reloads from: the prepared checkpoint
    restored, then the oracle run with its transient leak."""
    attack = build_attack(AesAttackSpec(key=DeterministicRng(0xF1).bytes(16)))
    attack.machine.restore(attack.leak_checkpoint(1))
    attack.oracle.run_and_read(bytes(16))
    return attack.machine.cache.snapshot()


def _reload_arm(cache_class, post, hot_lists):
    machine = Machine(RAPTOR_LAKE)
    geometry = machine.cache
    machine.cache = cache_class(
        sets=geometry.sets, ways=geometry.ways,
        line_size=geometry.line_size, hit_latency=geometry.hit_latency,
        miss_latency=geometry.miss_latency)
    channel = FlushReloadChannel(machine, base_address=PROBE_BASE,
                                 stride=PROBE_STRIDE, entries=PROBE_SLOTS)

    def arm():
        cache = machine.cache
        for _ in range(RELOADS):
            cache.restore(post)
            hot_lists.append(channel.hot_slots())
    return arm


def test_sec9_flush_reload_layer(benchmark):
    """Restore + reload per leak: the lazy sweep against the eager one.

    Each leak restores the post-victim cache and reloads all 4,096
    probe slots; the eager twin fills every slot (and the next restore
    rewrites every set it dirtied), the production cache only simulates
    the sets that can hold a probe line.
    """
    post = _post_victim_cache()
    lazy_hot, eager_hot = [], []
    lazy = _reload_arm(DataCache, post, lazy_hot)
    eager = _reload_arm(EagerDataCache, post, eager_hot)
    benchmark.pedantic(lazy, rounds=1, iterations=1)
    info = benchmark.extra_info
    speedup = paired_speedup(lazy, eager, info, "reload", rounds=5)
    info["reloads"] = RELOADS
    info["reload_speedup"] = round(speedup, 2)
    print_table(
        "Section 9 -- Flush+Reload sweep per leak (restore + 4,096 slots)",
        ["arm", "median s", "IQR s"],
        [["production (lazy fill)", info["reload_fast_median_s"],
          info["reload_fast_iqr_s"]],
         ["eager twin", info["reload_slow_median_s"],
          info["reload_slow_iqr_s"]],
         ["reload_speedup", f"{speedup:.1f}x", ""]])
    # Every sweep of either arm sees the same hot slots: 16
    # architectural ciphertext bytes plus up to 16 transient ones.
    assert 16 <= len(eager_hot[0]) <= 32
    assert all(hot == eager_hot[0] for hot in lazy_hot + eager_hot)
    assert speedup >= 2
