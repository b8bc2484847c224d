"""Scheduling edge cases and failure paths of the trial harness.

Covers the corners ``tests/test_harness.py`` leaves open: degenerate
chunk shapes, progress accounting, trials that legitimately return
``None``, worker processes that die outright (``os._exit``), and the
``vectorize``/``batch_trial`` fast path with its scalar fallback.

All trials live at module level so the fork-context pool can pickle
them by qualified name.
"""

from __future__ import annotations

import os

import pytest

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


def _batch_trial(context, indices, rngs):
    return [(index, rng.value_bits(16))
            for index, rng in zip(indices, rngs)]


def _short_batch_trial(context, indices, rngs):
    # Wrong-length result: must trigger the scalar fallback, not a
    # silent misalignment of values to indices.
    return [(index, rng.value_bits(16))
            for index, rng in zip(indices, rngs)][:-1]


def _raising_batch_trial(context, indices, rngs):
    raise RuntimeError("batch arm unavailable")


def _block_size_batch_trial(context, indices, rngs):
    # Each trial reports the size of the block it was batched in.
    return [len(indices)] * len(indices)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_totals_sum_to_count(workers):
    calls = []
    report = run_trials(_value_trial, 10, workers=workers, chunk_size=3,
                        progress=lambda done, total: calls.append(
                            (done, total)))
    assert report.count == 10
    assert all(total == 10 for _, total in calls)
    assert len(calls) == report.chunks == 4
    # Monotone done counts ending exactly at count; increments are the
    # chunk sizes, so they sum to count with no double-counting.
    dones = [done for done, _ in calls]
    assert dones == sorted(dones)
    assert dones[-1] == 10
    increments = [after - before
                  for before, after in zip([0] + dones, dones)]
    assert sum(increments) == 10


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


@pytest.mark.parametrize("workers", [1, 2])
def test_vectorized_matches_scalar(workers):
    scalar = run_trials(_value_trial, 17, workers=workers, chunk_size=5)
    batched = run_trials(_value_trial, 17, workers=workers, chunk_size=5,
                         vectorize=4, batch_trial=_batch_trial)
    assert batched.values == scalar.values
    assert batched.vectorize == 4
    assert scalar.vectorize == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_default_chunks_keep_full_vectorize_blocks(workers):
    """The default chunk is a multiple of the batch width, so no chunk
    boundary cuts a block below ``vectorize``."""
    report = run_trials(_value_trial, 96, workers=workers, vectorize=48,
                        batch_trial=_block_size_batch_trial)
    assert report.vectorize == 48
    assert report.values == [48] * 96
    tail = run_trials(_value_trial, 100, workers=workers, vectorize=48,
                      batch_trial=_block_size_batch_trial)
    assert tail.values == [48] * 96 + [4] * 4


def test_vectorize_requires_batch_trial():
    with pytest.raises(ValueError, match="batch_trial"):
        run_trials(_value_trial, 4, vectorize=2)
    with pytest.raises(ValueError, match="vectorize"):
        run_trials(_value_trial, 4, vectorize=0, batch_trial=_batch_trial)


def test_batch_fallback_on_raise():
    report = run_trials(_value_trial, 9, vectorize=4,
                        batch_trial=_raising_batch_trial)
    scalar = run_trials(_value_trial, 9)
    assert report.values == scalar.values
    assert report.failures == []


def test_batch_fallback_on_wrong_length():
    report = run_trials(_value_trial, 9, vectorize=3,
                        batch_trial=_short_batch_trial)
    scalar = run_trials(_value_trial, 9)
    assert report.values == scalar.values
    assert report.failures == []
