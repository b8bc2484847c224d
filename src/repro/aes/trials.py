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
from typing import Dict, List, Optional, Tuple

from repro.aes.attack import AesSpectreAttack
from repro.aes.victim import AesVictim
from repro.cpu.config import MachineConfig, RAPTOR_LAKE
from repro.cpu.machine import Machine
from repro.harness import DEFAULT_SEED, TrialReport, run_trials
from repro.isa.memory import Memory
from repro.isa.trace import TraceCache
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


# ----------------------------------------------------------------------
# Per-plaintext victim-signature trials (the batch-vectorized loop)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AesVictimSpec:
    """Rebuilds the bare looped victim (no attack) in a worker."""

    key: bytes
    config: MachineConfig = RAPTOR_LAKE
    #: Route batched sweeps through the process-global architectural
    #: trace cache: per-plaintext flows that repeat (a second sweep over
    #: the same plaintexts, retries) skip phase-1 interpretation
    #: entirely and replay the captured trace.
    use_trace_cache: bool = False

    #: The victim each worker builds (the reference twin,
    #: :class:`repro.fuzz.twins.ReferenceAesVictimSpec`, swaps it).
    _victim = AesVictim


#: One trace cache per worker process, shared across contexts so cache
#: warmth survives successive sweeps against the same spec.
_TRACE_CACHE = TraceCache()

#: Process-global ``(spec, width) -> (BatchMachine, pristine snapshot)``
#: cache.  Building a BatchMachine allocates per-replica shadow
#: components (O(width * sets)); successive sweeps against the same
#: frozen spec -- the benchmark's scalar/cold/warm arms, repeated
#: service jobs -- reuse one engine instead of rebuilding per
#: ``run_trials`` call.  Safe because every batch call restores the
#: pristine snapshot first.
_BATCH_MACHINES: Dict[tuple, tuple] = {}


def victim_trace_cache():
    """The process-global :class:`~repro.isa.trace.TraceCache`."""
    return _TRACE_CACHE


class VictimTrialContext:
    """Per-worker state for the per-plaintext victim trial loop.

    Holds one scalar machine plus its pristine checkpoint, and lazily
    one :class:`~repro.batch.BatchMachine` per batch width (the tail
    block of a chunk can be narrower than ``vectorize``).  Both paths
    restore to the same pristine predictor state before every trial, so
    a trial's signature depends only on its plaintext -- the property
    that makes the scalar and batched sweeps bit-identical.
    """

    def __init__(self, spec: AesVictimSpec):
        self.spec = spec
        self.victim = spec._victim(spec.key)
        self.entry = self.victim.program.address_of("aes_encrypt")
        self.machine = Machine(spec.config)
        self.checkpoint = self.machine.snapshot()
        self._batches: Dict[int, tuple] = {}

    def batch_for(self, width: int) -> tuple:
        """A ``(BatchMachine, pristine BatchSnapshot)`` pair of ``width``."""
        cached = self._batches.get(width)
        if cached is None:
            key = (self.spec, width)
            cached = _BATCH_MACHINES.get(key)
            if cached is None:
                from repro.batch import BatchMachine

                batch = BatchMachine.from_snapshot(self.spec.config,
                                                   self.checkpoint, width)
                cached = (batch, batch.snapshot())
                _BATCH_MACHINES[key] = cached
            self._batches[width] = cached
        return cached


def setup_victim_signature(spec: AesVictimSpec) -> VictimTrialContext:
    """Harness ``setup`` for the victim-signature trials."""
    return VictimTrialContext(spec)


def _signature(result, victim: AesVictim,
               memory: Memory) -> Tuple[str, int, int, int]:
    """The picklable per-trial outcome: ciphertext + predictor counters."""
    return (
        victim.read_ciphertext(memory).hex(),
        result.perf.conditional_branches,
        result.perf.conditional_mispredictions,
        result.phr_value,
    )


def victim_signature_trial(context: VictimTrialContext, index: int,
                           rng: DeterministicRng) -> Tuple[str, int, int, int]:
    """One scalar victim run on a random plaintext, from pristine state."""
    del index
    context.machine.restore(context.checkpoint)
    memory = Memory()
    context.victim.provision(memory, rng.bytes(16))
    result = context.machine.run(
        context.victim.program, memory=memory, entry=context.entry,
        speculate=False, trace="none")
    return _signature(result, context.victim, memory)


def victim_signature_batch(context: VictimTrialContext, indices: List[int],
                           rngs: List[DeterministicRng],
                           ) -> List[Tuple[str, int, int, int]]:
    """The vectorized twin of :func:`victim_signature_trial`.

    Provisions one memory per trial and steps all replicas through the
    victim in lockstep with one :meth:`BatchMachine.run_batch` call.
    Each trial draws ``rng.bytes(16)`` exactly like the scalar path, so
    ``run_trials(..., vectorize=N, batch_trial=...)`` returns the same
    values as the scalar sweep (pinned by the batch arm in
    ``tests/test_aes_victim_attack.py``).
    """
    batch, pristine = context.batch_for(len(indices))
    batch.restore(pristine)
    memories = []
    for rng in rngs:
        memory = Memory()
        context.victim.provision(memory, rng.bytes(16))
        memories.append(memory)
    cache = victim_trace_cache() if context.spec.use_trace_cache else None
    results = batch.run_batch(context.victim.program, memories,
                              entry=context.entry, trace="none",
                              trace_cache=cache)
    return [_signature(result, context.victim, memory)
            for result, memory in zip(results, memories)]


def run_victim_signatures(
    spec: AesVictimSpec,
    count: int,
    *,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    vectorize: Optional[int] = None,
) -> TrialReport:
    """Fan per-plaintext victim runs out, optionally batch-vectorized.

    ``vectorize=N`` routes blocks of N trials through
    :func:`victim_signature_batch`; the report is bit-identical to the
    scalar sweep either way, and for every ``workers`` count.
    """
    return run_trials(
        victim_signature_trial, count,
        setup=setup_victim_signature, spec=spec,
        seed=seed, workers=workers, chunk_size=chunk_size,
        vectorize=vectorize,
        batch_trial=victim_signature_batch if vectorize else None,
    )
