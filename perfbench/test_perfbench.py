"""Self-tests of the benchmark itself.

Run from the repository root (they take about two minutes, most of it
the tiny AES key recoveries)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    result = _invoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({name: entry["unit"]
             for name, entry in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in declared})
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def _flip_first(values):
    return [values[0] ^ 1] + list(values[1:])


def _corrupt_service(outcome):
    value = dict(outcome.value)
    if "branch_outcomes" in value:
        pc, flag = value["branch_outcomes"][0]
        value["branch_outcomes"] = ([(pc, not flag)]
                                    + value["branch_outcomes"][1:])
    elif "doublets" in value:
        value["doublets"] = _flip_first(value["doublets"])
    elif "mispredictions" in value:
        value["mispredictions"] = _flip_first(value["mispredictions"])
    else:
        first = list(value["signatures"][0])
        first[0] = "00" * 16 if first[0] != "00" * 16 else "11" * 16
        value["signatures"] = [first] + value["signatures"][1:]
    return dataclasses.replace(outcome, value=value)


CORRUPT = {
    "read_phr": lambda out: dict(out, doublets=_flip_first(out["doublets"])),
    "aes_key": lambda out: dict(out, key=format(int(out["key"][:2], 16) ^ 1,
                                                "02x") + out["key"][2:]),
    "image_recovery": lambda out: dict(out, map=[[cell + 1 for cell in row]
                                                 for row in out["map"]]),
    "service_mix": _corrupt_service,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_verifier_counts_a_corrupted_result(workload):
    """A wrong op result raises ``error_rate`` and moves ``sim_digest``.

    The corruption is applied to the benchmark's copy of the result and
    fed to the benchmark's verifier; ``src/repro`` is not involved.
    """
    instance = WORKLOADS[workload](tiny=True)
    records, wall, setup_s, scored, _ = bench.measure(
        instance, 3, RefClock(), count=instance.digest_ops)
    assert scored["failed"] == 0
    __, details = bench.summarize(records, wall, setup_s, 1.0)
    assert details["error_rate"] == 0.0

    records[0].output = CORRUPT[workload](records[0].output)
    rescored = bench.score(instance, records)
    assert rescored["failed"] == 1
    assert rescored["sim_digest"] != scored["sim_digest"]
    __, details = bench.summarize(records, wall, setup_s, 1.0)
    assert details["error_rate"] > 0.0


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    """Without ``src/repro`` the benchmark exits non-zero, printing no result."""
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_phr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""


def test_refclock_rescales_by_the_slices_and_leaves_them_out():
    """On a host running slices at half the reference speed, an interval
    reads half its host seconds, less the slices run inside it."""
    from refclock import REF_SLICE_S
    ref = RefClock()
    ref.slices = [(float(t), t + 2 * REF_SLICE_S) for t in range(20)]
    # Slices 1..10 lie inside; their host time is left out.
    assert ref.rescale(0.5, 10.5) == pytest.approx(
        (10.0 - 10 * 2 * REF_SLICE_S) * 0.5)
    # No slice inside: the nearest ones give the factor.
    assert ref.rescale(3.1, 3.2) == pytest.approx(0.05)
