"""Deterministic trial fan-out for the end-to-end attack experiments.

Every Section 8/9 attack evaluation and most ``bench_*`` scripts run
thousands of *independent* trials: AES leaks per plaintext, per-image
recoveries, mitigation arms, probe rounds.  This package gives them one
execution engine:

* :func:`run_trials` -- fan independent trials out over a
  ``ProcessPoolExecutor`` (or run them inline with ``workers=1``)
  with per-trial forked :class:`~repro.utils.rng.DeterministicRng`
  streams, chunked scheduling, and progress/failure accounting.  The
  determinism contract pins ``workers=N`` bit-identical to ``workers=1``.
  Pass ``vectorize=N`` with a ``batch_trial`` callable to run blocks of
  N trials through one :class:`~repro.batch.BatchMachine` sweep instead
  of N scalar trials (with automatic per-block scalar fallback);
  ``workers=W`` with ``vectorize=N`` is the one multi-process path for
  batch sweeps, bit-identical to the serial run.
* :meth:`repro.cpu.machine.Machine.snapshot` /
  :meth:`~repro.cpu.machine.Machine.restore` (the cpu layer's half of the
  harness) reset a trained machine between trials in O(changed-state)
  instead of re-provisioning, which is also what makes trials
  order-independent -- and therefore parallelizable -- in the first
  place.

Worker count comes from the call site or the ``REPRO_WORKERS``
environment variable (see :func:`resolve_workers`).
"""

from repro.harness.runner import (
    DEFAULT_SEED,
    TrialError,
    TrialFailure,
    TrialReport,
    WORKERS_ENV,
    resolve_workers,
    run_trials,
    trial_rng,
)

__all__ = [
    "DEFAULT_SEED",
    "TrialError",
    "TrialFailure",
    "TrialReport",
    "WORKERS_ENV",
    "resolve_workers",
    "run_trials",
    "trial_rng",
]
