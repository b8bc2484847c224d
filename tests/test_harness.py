"""The trial harness's determinism contract and failure accounting.

The load-bearing property: ``run_trials(trial, n, workers=N)`` is
bit-identical to ``workers=1`` for any N, because a trial's result
depends only on ``(context, index, rng)`` -- the context is rebuilt
equivalently in every worker, the rng is forked purely from
``(seed, index)``, and machine-mutating trials restore a snapshot.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.aes import AesAttackSpec, setup_attack
from repro.aes.trials import leak_trial, success_trial
from repro.cpu import Machine, RAPTOR_LAKE
from repro.harness import (
    DEFAULT_SEED,
    TrialError,
    WORKERS_ENV,
    resolve_workers,
    run_trials,
    trial_rng,
)
from repro.utils.rng import DeterministicRng

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# --- module-level trials (picklable by qualified name) ------------------

def _echo_trial(context, index, rng):
    return (context, index, rng.value_bits(32))


def _machine_setup(spec):
    """A trained machine plus its checkpoint -- the harness usage pattern."""
    machine = Machine(RAPTOR_LAKE)
    rng = DeterministicRng(spec)
    for _ in range(64):
        pc = 0x400000 + 0x40 * rng.integer(0, 15)
        machine.observe_conditional(pc, pc + 0x100, rng.coin())
    return machine, machine.snapshot()


def _machine_trial(context, index, rng):
    """Mutates the machine, restores the checkpoint: order-independent."""
    machine, checkpoint = context
    machine.restore(checkpoint)
    outcomes = []
    for _ in range(16):
        pc = 0x400000 + 0x40 * rng.integer(0, 15)
        outcomes.append(machine.observe_conditional(pc, pc + 0x100,
                                                    rng.coin()))
    return index, tuple(outcomes), machine.phr().value


def _failing_trial(context, index, rng):
    if index % 3 == 1:
        raise ValueError(f"boom at {index}")
    return index * 10


class TestTrialRng:
    def test_depends_only_on_seed_and_index(self):
        streams = [trial_rng(7, index).bytes(8) for index in range(20)]
        again = [trial_rng(7, index).bytes(8) for index in range(20)]
        assert streams == again
        assert len(set(streams)) == len(streams)

    def test_independent_of_draw_order(self):
        # Drawing from trial 3's rng must not perturb trial 4's stream.
        isolated = trial_rng(7, 4).bytes(8)
        earlier = trial_rng(7, 3)
        earlier.bytes(64)
        assert trial_rng(7, 4).bytes(8) == isolated


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_rejects_nonpositive_values(self, bad):
        with pytest.raises(ValueError, match="must be >= 1"):
            resolve_workers(bad)

    @pytest.mark.parametrize("bad", [2.0, 1.5, True, False, [4]])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(bad)

    @pytest.mark.parametrize("raw", ["zero", "4.0", "2x", ""])
    def test_rejects_unparsable_strings(self, raw):
        # An empty explicit string is not "unset" -- only the env var
        # treats empty as absent.
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(raw)

    def test_accepts_numeric_strings(self):
        assert resolve_workers("6") == 6
        assert resolve_workers(" 2 ") == 2

    def test_env_errors_name_the_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()


class TestSerialPath:
    def test_values_ordered_by_index(self):
        report = run_trials(_echo_trial, 10, setup=lambda s: s, spec="ctx",
                            workers=1)
        assert [v[1] for v in report.values] == list(range(10))
        assert all(v[0] == "ctx" for v in report.values)
        assert not report.parallel
        assert report.completed == report.count == 10

    def test_chunking_does_not_change_values(self):
        baseline = run_trials(_echo_trial, 12, workers=1).values
        for chunk_size in (1, 5, 12, 100):
            report = run_trials(_echo_trial, 12, workers=1,
                                chunk_size=chunk_size)
            assert report.values == baseline

    def test_zero_trials(self):
        report = run_trials(_echo_trial, 0, workers=1)
        assert report.values == [] and report.count == 0

    def test_progress_reaches_total(self):
        ticks = []
        run_trials(_echo_trial, 9, workers=1, chunk_size=2,
                   progress=lambda done, total: ticks.append((done, total)))
        assert ticks[-1] == (9, 9)
        assert [d for d, _ in ticks] == sorted(d for d, _ in ticks)

    def test_seed_changes_streams(self):
        first = run_trials(_echo_trial, 6, seed=1, workers=1).values
        second = run_trials(_echo_trial, 6, seed=2, workers=1).values
        assert first != second
        assert run_trials(_echo_trial, 6, seed=1, workers=1).values == first


class TestFailureAccounting:
    def test_raise_mode_surfaces_all_failures(self):
        with pytest.raises(TrialError) as excinfo:
            run_trials(_failing_trial, 9, workers=1)
        failures = excinfo.value.failures
        assert [f.index for f in failures] == [1, 4, 7]
        assert "boom at 1" in str(excinfo.value)

    def test_collect_mode_keeps_good_values(self):
        report = run_trials(_failing_trial, 9, workers=1,
                            on_error="collect")
        assert [f.index for f in report.failures] == [1, 4, 7]
        assert report.completed == 6
        for index, value in enumerate(report.values):
            assert value == (None if index % 3 == 1 else index * 10)

    def test_failure_does_not_poison_chunkmates(self):
        report = run_trials(_failing_trial, 9, workers=1, chunk_size=9,
                            on_error="collect")
        assert report.values[2] == 20 and report.values[8] == 80

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ValueError):
            run_trials(_echo_trial, 1, on_error="ignore")


@pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
class TestParallelBitIdentical:
    """workers=N == workers=1, the headline property."""

    def test_machine_trials(self):
        serial = run_trials(_machine_trial, 12, setup=_machine_setup,
                            spec=0xCAFE, workers=1)
        for workers in (2, 3):
            parallel = run_trials(_machine_trial, 12, setup=_machine_setup,
                                  spec=0xCAFE, workers=workers,
                                  chunk_size=2)
            assert parallel.parallel
            assert parallel.values == serial.values

    def test_aes_leak_trials(self):
        spec = AesAttackSpec(key=DeterministicRng(0xD0).bytes(16))
        serial = run_trials(leak_trial, 6, setup=setup_attack, spec=spec,
                            workers=1)
        parallel = run_trials(leak_trial, 6, setup=setup_attack, spec=spec,
                              workers=3, chunk_size=2)
        assert parallel.parallel
        assert parallel.values == serial.values

    def test_parallel_failures_collected(self):
        report = run_trials(_failing_trial, 9, workers=3, chunk_size=3,
                            on_error="collect")
        assert [f.index for f in report.failures] == [1, 4, 7]
        assert report.values[6] == 60


class TestSnapshotMakesTrialsOrderIndependent:
    def test_success_trials_match_fresh_provisioning(self):
        """Checkpoint restore == a freshly provisioned attack, per trial."""
        spec = AesAttackSpec(key=DeterministicRng(0xD1).bytes(16))
        shared = run_trials(success_trial, 4, setup=setup_attack,
                            spec=spec, workers=1).values
        fresh = [success_trial(setup_attack(spec), index,
                               trial_rng(DEFAULT_SEED, index))
                 for index in range(4)]
        assert shared == fresh
