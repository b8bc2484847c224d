"""Scheduling edge cases and failure paths of the trial harness.

Covers the corners ``tests/test_harness.py`` leaves open: degenerate
chunk shapes, trials that legitimately return ``None``, and worker
processes that die outright (``os._exit``) -- mid-chunk or while
chunks are still being submitted.

All trials live at module level so the fork-context pool can pickle
them by qualified name.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.harness import runner
from repro.harness import (
    DEFAULT_SEED,
    TrialError,
    TrialFailure,
    TrialReport,
    run_trials,
    trial_rng,
)


def _value_trial(context, index, rng):
    return (index, rng.value_bits(16))


def _none_trial(context, index, rng):
    return None


def _exit_trial(context, index, rng):
    # Dies without raising: no exception crosses the pool boundary, the
    # worker process simply vanishes mid-chunk.
    if index == 1:
        os._exit(13)
    return index


def test_chunk_size_larger_than_count():
    report = run_trials(_value_trial, 3, chunk_size=100)
    assert report.chunks == 1
    assert report.count == 3
    assert report.completed == 3
    assert [value[0] for value in report.values] == [0, 1, 2]


def test_single_trial_many_workers():
    report = run_trials(_value_trial, 1, workers=4)
    assert report.count == 1
    assert report.completed == 1
    assert report.values[0] == _value_trial(None, 0,
                                            trial_rng(DEFAULT_SEED, 0))


def test_none_result_is_not_a_failure():
    """A trial returning ``None`` counts as completed, not failed."""
    report = run_trials(_none_trial, 5, chunk_size=2)
    assert report.values == [None] * 5
    assert report.failures == []
    assert report.completed == 5
    assert report.count == 5


def test_worker_death_collected_as_failures():
    """An ``os._exit`` worker breaks the pool; its trials become
    :class:`TrialFailure` records instead of an unhandled
    ``BrokenProcessPool`` escaping ``on_error='collect'``."""
    report = run_trials(_exit_trial, 6, workers=2, chunk_size=2,
                        on_error="collect")
    assert isinstance(report, TrialReport)
    assert report.count == 6
    assert report.failures, "dead worker must surface as failures"
    assert all(isinstance(failure, TrialFailure)
               for failure in report.failures)
    failed = {failure.index for failure in report.failures}
    # The chunk containing the exiting trial is certainly lost.
    assert 1 in failed
    for failure in report.failures:
        assert "BrokenProcessPool" in failure.error
        assert report.values[failure.index] is None
    # Failure accounting stays coherent.
    assert report.completed == report.count - len(report.failures)


def test_worker_death_raises_under_default_mode():
    with pytest.raises(TrialError) as excinfo:
        run_trials(_exit_trial, 6, workers=2, chunk_size=2)
    assert any(failure.index == 1 for failure in excinfo.value.failures)


class _PoolDyingAtSecondSubmit(runner.ProcessPoolExecutor):
    """A pool whose worker dies between the first and second submit: the
    second and every later ``submit`` raise ``BrokenProcessPool``, as a
    real executor does once a worker has vanished."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        if self.submits >= 2:
            raise BrokenProcessPool("worker died during submission")
        return super().submit(*args, **kwargs)


def test_worker_death_during_submission_is_collected(monkeypatch):
    """A death before the last ``submit`` records the refused chunk and
    every chunk after it, instead of leaking ``BrokenProcessPool``."""
    monkeypatch.setattr(runner, "ProcessPoolExecutor",
                        _PoolDyingAtSecondSubmit)
    report = run_trials(_value_trial, 6, workers=2, chunk_size=2,
                        on_error="collect")
    assert report.count == 6
    assert report.parallel
    # The one submitted chunk ran; the two refused ones are failures.
    assert report.values[:2] == [_value_trial(None, index,
                                              trial_rng(DEFAULT_SEED, index))
                                 for index in range(2)]
    assert [failure.index for failure in report.failures] == [2, 3, 4, 5]
    for failure in report.failures:
        assert "BrokenProcessPool" in failure.error
        assert report.values[failure.index] is None
    assert report.completed == 2


def test_worker_death_during_submission_raises_under_default_mode(
        monkeypatch):
    monkeypatch.setattr(runner, "ProcessPoolExecutor",
                        _PoolDyingAtSecondSubmit)
    with pytest.raises(TrialError) as excinfo:
        run_trials(_value_trial, 6, workers=2, chunk_size=2)
    assert [failure.index for failure in excinfo.value.failures] == \
        [2, 3, 4, 5]


@pytest.mark.parametrize("workers", [1, 2])
def test_default_chunks_aim_at_four_per_worker(workers):
    """The default chunk size splits the trials into ~4 chunks per
    worker, and chunking never changes the values."""
    report = run_trials(_value_trial, 96, workers=workers)
    assert report.chunks == 4 * workers
    assert report.values == run_trials(_value_trial, 96,
                                       chunk_size=96).values
    tail = run_trials(_value_trial, 100, workers=workers)
    assert tail.chunks == 4 * workers
