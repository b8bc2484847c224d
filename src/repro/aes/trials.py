"""Picklable setup/trial functions for harness fan-out of the AES attack.

The trial harness (:mod:`repro.harness`) runs ``trial(context, index,
rng)`` callables in worker processes, which must resolve ``setup`` and
``trial`` by qualified module name.  The attack objects themselves are
not picklable (the machine holds compiled closures), so workers rebuild
the whole context -- machine, oracle, profiled attack, leak checkpoint --
from the tiny frozen :class:`AesAttackSpec` below.  Because every piece
of that construction is deterministic, every worker's context is
equivalent and the harness determinism contract holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.aes.attack import AesSpectreAttack
from repro.cpu.config import MachineConfig, RAPTOR_LAKE
from repro.cpu.machine import Machine
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class AesAttackSpec:
    """Everything needed to rebuild an attack in a worker process."""

    key: bytes
    config: MachineConfig = RAPTOR_LAKE
    rng_seed: int = 0xAE5
    retry_budget: int = 8
    use_checkpoints: bool = True
    #: Exit iteration the setup checkpoint is poised at.
    exit_iteration: int = 1


def build_attack(spec: AesAttackSpec) -> AesSpectreAttack:
    """A fresh attack instance for ``spec`` (no profiling run yet)."""
    return AesSpectreAttack(
        Machine(spec.config),
        spec.key,
        rng=DeterministicRng(spec.rng_seed),
        retry_budget=spec.retry_budget,
        use_checkpoints=spec.use_checkpoints,
        spec=spec,
    )


def setup_attack(spec: AesAttackSpec) -> AesSpectreAttack:
    """Harness ``setup``: build, profile, and checkpoint the attack."""
    attack = build_attack(spec)
    attack.profile()
    if spec.use_checkpoints:
        attack.leak_checkpoint(spec.exit_iteration)
    return attack


def _trial_plaintext(attack: AesSpectreAttack, index: int,
                     rng: DeterministicRng) -> bytes:
    del attack, index
    return rng.bytes(16)


def leak_trial(attack: AesSpectreAttack, index: int,
               rng: DeterministicRng) -> Tuple[Tuple[int, ...], str, float]:
    """One attacked invocation on a random plaintext.

    Returns ``(recovered bytes, architectural ciphertext hex, coverage)``
    -- plain picklable values, per the harness contract.
    """
    spec: AesAttackSpec = attack.spec
    leak = attack.leak_reduced_round(
        _trial_plaintext(attack, index, rng), spec.exit_iteration)
    return tuple(leak.recovered), leak.ciphertext.hex(), leak.coverage


def success_trial(attack: AesSpectreAttack, index: int,
                  rng: DeterministicRng) -> float:
    """One attacked invocation scored against the ground-truth RRC."""
    spec: AesAttackSpec = attack.spec
    plaintext = _trial_plaintext(attack, index, rng)
    leak = attack.leak_reduced_round(plaintext, spec.exit_iteration)
    truth = attack.ground_truth_rrc(plaintext, spec.exit_iteration)
    return sum(1 for got, want in zip(leak.recovered, truth)
               if got == want) / 16
