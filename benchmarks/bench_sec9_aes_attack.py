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
"""

from repro.aes import AesAttackSpec, AesSpectreAttack, build_attack
from repro.cpu import Machine, RAPTOR_LAKE
from repro.harness import run_trials
from repro.utils.rng import DeterministicRng

from conftest import print_table

TRIALS_PER_ITERATION = 20


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
