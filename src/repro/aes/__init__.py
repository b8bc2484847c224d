"""AES substrate for the Section 9 key-recovery case study.

A complete from-scratch AES implementation (core rounds, key schedule with
inversion, block cipher modes), the Intel-IPP-style *looped* AES-NI victim
of the paper's Listing 1 compiled into the reproduction ISA, the Listing 3
encryption oracle with its post-processing side channel, and the
cryptanalysis that turns transiently leaked reduced-round ciphertexts back
into the secret key.
"""

from repro.aes.core import (
    aesenc,
    aesenclast,
    encrypt_block,
    decrypt_block,
    reduced_round_ciphertext,
)
from repro.aes.keyschedule import (
    expand_key,
    invert_round_key_128,
    rounds_for_key,
)
from repro.aes.modes import (
    cbc_decrypt,
    cbc_encrypt,
    cfb_decrypt,
    cfb_encrypt,
    ctr_transform,
    ecb_decrypt,
    ecb_encrypt,
)
from repro.aes.victim import AesUnrolledVictim, AesVictim
from repro.aes.cbc_victim import AesCbcVictim
from repro.aes.oracle import EncryptionOracle
from repro.aes.equality_oracle import EqualityLeakAttack, EqualityOracle
from repro.aes.keyrecovery import recover_key_from_two_round_oracle
from repro.aes.attack import (
    AesSpectreAttack,
    AmbiguousChannelError,
    LeakResult,
)
from repro.aes.trials import AesAttackSpec, build_attack, setup_attack

__all__ = [
    "AesAttackSpec",
    "AesCbcVictim",
    "AesSpectreAttack",
    "AmbiguousChannelError",
    "LeakResult",
    "build_attack",
    "setup_attack",
    "AesUnrolledVictim",
    "AesVictim",
    "EncryptionOracle",
    "EqualityLeakAttack",
    "EqualityOracle",
    "aesenc",
    "aesenclast",
    "cbc_decrypt",
    "cbc_encrypt",
    "cfb_decrypt",
    "cfb_encrypt",
    "ctr_transform",
    "decrypt_block",
    "ecb_decrypt",
    "ecb_encrypt",
    "encrypt_block",
    "expand_key",
    "invert_round_key_128",
    "recover_key_from_two_round_oracle",
    "reduced_round_ciphertext",
    "rounds_for_key",
]
