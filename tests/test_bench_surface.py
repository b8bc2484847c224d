"""The program surface the attack-level benchmark (``perfbench/``) calls.

``perfbench/tracing.py`` patches ~30 entry points by name and
``perfbench/workloads.py`` reads a handful of attributes off the public
API.  A rename of any of them breaks the benchmark without breaking any
other test, so this file pins them: it installs the tracer (which looks
every patched name up), reads each attribute the workloads read, and
binds or calls each constructor and method the way the workloads do.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from repro.aes.attack import AesSpectreAttack
from repro.aes.core import encrypt_block
from repro.aes.trials import AesAttackSpec, build_attack
from repro.aes.victim import AesVictim
from repro.cpu import Machine, RAPTOR_LAKE
from repro.harness import run_trials
from repro.isa.memory import Memory
from repro.jpeg import ImageRecoveryAttack, JpegCodec
from repro.primitives import PhrMacros, PhrReader, PhtReader
from repro.replay import ReplayEngine
from repro.utils.rng import DeterministicRng
from repro.service import (AttackService, Job, MachineSpec, SnapshotStore,
                           TraceCache)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _index_trial(context, index, rng):
    return index


def test_tracer_patches_every_entry_point():
    tracing = _load_tracing()
    original = Machine.run
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert Machine.run is not original
    finally:
        tracer.remove()
    assert Machine.run is original


def test_recover_key_accepts_one_worker():
    inspect.signature(AesSpectreAttack.recover_key).bind(None, workers=1)


def test_trial_report_fields():
    report = run_trials(_index_trial, 3, workers=1)
    assert (report.count, report.values, report.failures) == (3, [0, 1, 2],
                                                              [])


def test_replay_stats_fields():
    stats = ReplayEngine(Machine(RAPTOR_LAKE)).stats
    for name in ("prefix_runs", "restores", "checkpoint_hits",
                 "checkpoint_misses", "store_hits"):
        assert getattr(stats, name) == 0, name


def test_service_store_and_trace_cache_surface(tmp_path):
    store = SnapshotStore(directory=tmp_path / "spill", memory_entries=2,
                          disk_budget_bytes=1 << 20)
    trace_cache = TraceCache()
    with AttackService(store=store, workers_per_profile=2,
                       trace_cache=trace_cache) as service:
        handle = service.submit(Job(
            "write_pht", machine=MachineSpec(RAPTOR_LAKE),
            params={"pc": 0x40_0000, "phr_value": 1, "taken": True}))
        assert isinstance(handle.submitted_at, float)
        outcome = handle.result()
    assert outcome.ok, getattr(outcome, "error", None)
    assert outcome.value is not None
    assert outcome.seconds >= 0.0
    assert outcome.attempts == 1
    stats = store.stats
    for name in ("memory_hits", "disk_hits", "spills"):
        assert isinstance(getattr(stats, name), int), name
    assert 0.0 <= stats.hit_rate <= 1.0
    assert store.disk_bytes() >= 0
    assert 0.0 <= trace_cache.stats.hit_rate <= 1.0
    assert trace_cache.stats.divergences == 0



def test_workload_call_shapes():
    """The constructor and method calls ``perfbench/workloads.py`` makes,
    in its own argument shapes."""
    machine = Machine(RAPTOR_LAKE)
    inspect.signature(PhrReader).bind(
        machine, PhrMacros(machine), rng=DeterministicRng(1))
    inspect.signature(PhtReader(machine).read_batch).bind(
        [(0x40_1000, 1)], lambda: None)
    inspect.signature(ImageRecoveryAttack).bind(machine, JpegCodec(quality=75))
    attack = build_attack(AesAttackSpec(key=bytes(16)))
    assert isinstance(attack, AesSpectreAttack)


def test_signature_reference_run():
    """``ServiceMix._signatures``: a scalar ``Machine.run`` of the AES
    victim, read back and checked against the AES core."""
    key, plaintext = bytes(range(16)), bytes(range(16, 32))
    victim = AesVictim(key)
    entry = victim.program.address_of("aes_encrypt")
    memory = Memory()
    victim.provision(memory, plaintext)
    result = Machine(RAPTOR_LAKE).run(victim.program, memory=memory,
                                      entry=entry, speculate=False,
                                      trace="none")
    assert victim.read_ciphertext(memory) == encrypt_block(
        plaintext, victim.round_keys)
    assert result.perf.conditional_branches == victim.rounds - 1
