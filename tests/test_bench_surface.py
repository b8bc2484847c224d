"""The program surface the attack-level benchmark (``perfbench/``) calls.

``perfbench/tracing.py`` patches ~30 entry points by name and
``perfbench/workloads.py`` reads a handful of attributes off the public
API.  A rename of any of them breaks the benchmark without breaking any
other test, so this file pins them: it installs the tracer (which looks
every patched name up) and reads each attribute the workloads read.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from repro.aes.attack import AesSpectreAttack
from repro.cpu import Machine, RAPTOR_LAKE
from repro.harness import run_trials
from repro.replay import ReplayEngine
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

