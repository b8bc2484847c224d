"""Process fan-out of batch-vectorized sweeps.

``run_victim_signatures(spec, n, workers=W, vectorize=N)`` splits the
trials across W forked workers, each running its share through the
vectorized fast path; the report must equal the single-process one
replica for replica.
"""

from __future__ import annotations

import multiprocessing

import pytest

pytest.importorskip("numpy")

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_victim_sweep_matches_unsharded(shards):
    """W workers == 1 worker, value for value, on the vectorized path."""
    from repro.aes.trials import AesVictimSpec, run_victim_signatures

    spec = AesVictimSpec(key=bytes(range(16)))
    serial = run_victim_signatures(spec, 18, workers=1, vectorize=6)
    fanned = run_victim_signatures(spec, 18, workers=shards, vectorize=6)
    assert fanned.parallel
    assert fanned.values == serial.values
