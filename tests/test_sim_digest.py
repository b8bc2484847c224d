"""Golden ``sim_digest`` pins: the simulated output of every benchmark
workload, bit for bit.

A simulator-only change (a faster cache, interpreter or predictor path)
must leave every simulated output alone.  The attack-level benchmark
hashes those outputs into its ``sim_digest`` (``perfbench/run.py``
``score``); this module recomputes the digest through the benchmark's
own workload and scoring code -- imported, not copied -- and compares it
with ``tests/golden/sim_digest.json``:

* ``tiny``: the ``--tiny`` workloads at seeds 1-3 (tier-1);
* ``full``: the full workloads' ``digest_ops`` at seed 1 (``-m slow``;
  the ``perfbench-smoke`` CI job runs it).

After a change that moves a simulated output on purpose, re-record the
file and name each moved workload, and why, in CHANGES.md::

    PYTHONPATH=src python tests/test_sim_digest.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
GOLDEN_PATH = Path(__file__).parent / "golden" / "sim_digest.json"

WORKLOAD_NAMES = ("aes_key", "image_recovery", "read_phr", "service_mix")
TINY_SEEDS = (1, 2, 3)
FULL_SEEDS = (1,)


def _perfbench():
    """perfbench's ``run`` (scoring) and ``workloads`` modules and its
    reference clock."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import refclock
    import run
    import workloads
    return run, workloads, refclock


def sim_digest(name: str, seed: int, tiny: bool) -> str:
    """The ``sim_digest`` a benchmark run of workload ``name`` reports.

    It drives the workload's ``digest_ops`` ops -- the ops the digest
    covers -- once, without the timed set-ups around them.
    """
    run, workloads, refclock = _perfbench()
    workload = workloads.WORKLOADS[name](tiny=tiny)
    ctx = workload.setup()
    try:
        records, __ = workload.drive(ctx, workload.inputs(seed),
                                     refclock.RefClock(inside_ops=False),
                                     count=workload.digest_ops)
    finally:
        workload.teardown(ctx)
    scored = run.score(workload, records)
    assert scored["failed"] == 0, f"{name} seed {seed}: an op failed"
    return scored["sim_digest"]


def compute_golden() -> dict:
    return {
        size: {name: {str(seed): sim_digest(name, seed, size == "tiny")
                      for seed in seeds}
               for name in WORKLOAD_NAMES}
        for size, seeds in (("tiny", TINY_SEEDS), ("full", FULL_SEEDS))
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_workload_and_seed(golden):
    for size, seeds in (("tiny", TINY_SEEDS), ("full", FULL_SEEDS)):
        assert sorted(golden[size]) == sorted(WORKLOAD_NAMES)
        for name in WORKLOAD_NAMES:
            assert sorted(golden[size][name]) == [str(s) for s in seeds]


@pytest.mark.parametrize("seed", TINY_SEEDS)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_sim_digest_matches_golden(name, seed, golden):
    assert sim_digest(name, seed, tiny=True) == golden["tiny"][name][
        str(seed)], f"{name} seed {seed}: a simulated output moved"


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_full_sim_digest_matches_golden(name, seed, golden):
    assert sim_digest(name, seed, tiny=False) == golden["full"][name][
        str(seed)], f"{name} seed {seed}: a simulated output moved"


if __name__ == "__main__":
    if "--record" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/test_sim_digest.py "
                 "--record")
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=2,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
