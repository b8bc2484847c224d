"""Attack-service load generator: warm vs cold checkpoint store.

The service layer's performance claim (ARCHITECTURE.md §11) is that the
content-addressed :class:`~repro.service.store.SnapshotStore` converts
repeated attack requests against the same (profile, victim) from
"re-run the victim prefix every time" into "restore a shared
checkpoint".  This bench measures exactly that, with the service's own
public surface:

* **cold arm** -- an :class:`~repro.service.pool.AttackService` with no
  store: every ``read_phr`` job pays the full victim profiling run.
* **warm arm** -- a service sharing one store, primed by a single
  leading job; the measured jobs all hit the published checkpoint.

Both arms run the identical workload (same victims, same read widths)
and must produce bit-identical doublets; the warm arm must clear a
>= 3x requests/sec gate (asserted in quick and full mode).  The ratio
is the median of paired cold/warm rounds in alternating order
(``conftest.paired_self_timed_speedup``); every round starts a fresh
service (and, for the warm arm, a fresh store in its own spill
directory) and times only the measured requests.  Each arm's median
and IQR in seconds are recorded next to the ratio.  Latency
percentiles come from :func:`repro.utils.stats.summarize_timings` --
the same helper the trial harness reports through -- over the per-job
wall-clock seconds the service records in each arm's last round.

Results land in ``benchmarks/results/service_load.json`` (requests/sec
per arm, p50/p99 latency, store hit rate, spill-directory size).
"""

import json
import os
import tempfile
import time
from pathlib import Path

from repro.service import (
    AttackService,
    JobFailure,
    ServiceClient,
    SnapshotStore,
    VictimProgramSpec,
)
from repro.utils.stats import summarize_timings

from conftest import BENCH_QUICK, paired_self_timed_speedup, print_table

#: Victim weight: loop iterations interpreted per profiling run.  The
#: prefix must dominate the per-guess suffix measurements for the store
#: to matter -- exactly the regime real victims (AES oracle, IDCT) live
#: in, where one victim run costs thousands of interpreted instructions.
VICTIM_ITERATIONS = 2000 if BENCH_QUICK else 4000
#: Measured requests per arm (the priming job is extra, unmeasured).
REQUESTS = 12 if BENCH_QUICK else 48
#: Doublets each read_phr job recovers.
READ_COUNT = 2
#: Worker threads per profile: the executor's threads share one job queue.
WORKERS = 2

#: The throughput gate: warm store over cold baseline.
SPEEDUP_FLOOR = 3.0
#: Paired cold/warm rounds behind the recorded speedup (the median ratio).
SPEEDUP_ROUNDS = 7


def _run_arm(store, client_jobs: int, prime: bool):
    """One service lifetime: optionally prime, then measure the load."""
    victim = VictimProgramSpec(shape="counted_loop",
                               iterations=VICTIM_ITERATIONS)
    with AttackService(store=store, workers_per_profile=WORKERS) as service:
        client = ServiceClient(service)
        if prime:
            primer = client.gather(
                [client.submit("read_phr", victim=victim, count=READ_COUNT,
                               tag="prime")],
                on_error="raise")
            assert primer[0].ok
        start = time.perf_counter()
        handles = [
            client.submit("read_phr", victim=victim, count=READ_COUNT,
                          tag=f"load-{index}")
            for index in range(client_jobs)
        ]
        outcomes = client.gather(handles)
        elapsed = time.perf_counter() - start
        failures = [o for o in outcomes if isinstance(o, JobFailure)]
        assert not failures, failures[:3]
        stats = service.stats()
    return {
        "elapsed_s": elapsed,
        "outcomes": outcomes,
        "latency": summarize_timings(o.seconds for o in outcomes),
        "service_stats": stats,
    }


def _spill_directory() -> str:
    """The warm arm's spill directory.

    ``REPRO_SERVICE_SPILL_DIR`` pins it to a known path so CI can
    upload the artifacts when the gate fails; otherwise a throwaway
    temp directory.
    """
    pinned = os.environ.get("REPRO_SERVICE_SPILL_DIR")
    if pinned:
        Path(pinned).mkdir(parents=True, exist_ok=True)
        return pinned
    return tempfile.mkdtemp(prefix="repro-service-load-")


def run_arms(extra_info):
    """Paired cold/warm rounds; every round's runs, per arm."""
    spill = _spill_directory()
    runs = {"cold": [], "warm": []}

    def cold():
        runs["cold"].append(_run_arm(store=None, client_jobs=REQUESTS,
                                     prime=False))
        return runs["cold"][-1]["elapsed_s"]

    def warm():
        store = SnapshotStore(directory=Path(spill)
                              / f"round-{len(runs['warm'])}")
        runs["warm"].append(_run_arm(store=store, client_jobs=REQUESTS,
                                     prime=True))
        runs["manifest"] = store.manifest()
        return runs["warm"][-1]["elapsed_s"]

    runs["speedup"] = paired_self_timed_speedup(
        warm, cold, extra_info, "service", SPEEDUP_ROUNDS)
    return runs


def test_service_load(benchmark):
    runs = benchmark.pedantic(run_arms, args=(benchmark.extra_info,),
                              rounds=1, iterations=1)
    info = benchmark.extra_info
    cold, warm = runs["cold"][-1], runs["warm"][-1]
    manifest = runs["manifest"]
    # Persist the spill-directory manifest before any gate can fail, so
    # a broken CI run uploads exactly what the store held.
    manifest_path = Path(__file__).parent / "results" \
        / "service_load_manifest.json"
    manifest_path.parent.mkdir(exist_ok=True)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    speedup = runs["speedup"]
    hit_rate = warm["service_stats"]["store"]["hit_rate"]

    def row(name, arm, side):
        latency = arm["latency"]
        median_s = info[f"service_{side}_median_s"]
        return [name, f"{median_s:.3f}s", f"{REQUESTS / median_s:.1f}",
                f"{info[f'service_{side}_iqr_s']:.3f}s",
                f"{latency.p50 * 1000:.1f}ms", f"{latency.p99 * 1000:.1f}ms"]

    print_table(
        f"Service load -- {REQUESTS} read_phr requests, "
        f"{VICTIM_ITERATIONS}-iteration victim, {WORKERS} workers, "
        f"median of {SPEEDUP_ROUNDS} paired rounds "
        f"({'quick' if BENCH_QUICK else 'full'} mode)",
        ["arm", "median time", "req/s", "IQR", "p50", "p99"],
        [row("cold (no store)", cold, "slow"),
         row("warm (shared store)", warm, "fast")],
    )
    print(f"warm/cold speedup {speedup:.2f}x, "
          f"store hit rate {hit_rate:.2%}, "
          f"{len(manifest['disk_artifacts'])} artifact(s), "
          f"{manifest['disk_bytes']} bytes spilled")

    # Bit-identity across arms and rounds: the store changes cost,
    # never results.
    cold_values = [o.value["doublets"] for o in runs["cold"][0]["outcomes"]]
    for arm in runs["cold"] + runs["warm"]:
        assert [o.value["doublets"] for o in arm["outcomes"]] == cold_values

    # Every measured warm job was served from the store (no prefix runs).
    for arm in runs["warm"]:
        for outcome in arm["outcomes"]:
            replay = outcome.value["replay"]
            assert replay["prefix_runs"] == 0, replay
            assert replay["store_hits"] >= 1, replay

    # The throughput gate.
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm store only {speedup:.2f}x over the cold baseline "
        f"(floor {SPEEDUP_FLOOR}x)")
    assert hit_rate > 0.0
    assert manifest["disk_bytes"] > 0

    info.update({
        "requests": REQUESTS,
        "victim_iterations": VICTIM_ITERATIONS,
        "workers_per_profile": WORKERS,
        "speedup_rounds": SPEEDUP_ROUNDS,
        "cold_requests_per_s": round(
            REQUESTS / info["service_slow_median_s"], 2),
        "warm_requests_per_s": round(
            REQUESTS / info["service_fast_median_s"], 2),
        "cold_latency_s": cold["latency"].as_dict(),
        "warm_latency_s": warm["latency"].as_dict(),
        "store_hit_rate": round(hit_rate, 4),
        "store_disk_bytes": manifest["disk_bytes"],
        "store_artifacts": len(manifest["disk_artifacts"]),
        "service_speedup": round(speedup, 2),
    })
