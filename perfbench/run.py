"""Attack-level benchmark for the Pathfinder reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read_phr --seed 1 --seconds 12 --trace 0

Workloads: ``read_phr``, ``aes_key``, ``image_recovery``, ``service_mix``
(see ``NOTES.md``).  ``--trace 0`` measures the end-to-end metrics with
no instrumentation installed.  ``--trace 1`` runs the workload's fixed
digest ops twice -- first untraced, then with the span wrappers of
``tracing.py`` installed -- and reports the per-layer metrics plus the
tracing overhead on every end-to-end metric.  It ignores ``--seconds``:
a fixed op count keeps every per-layer count independent of host speed.
``--tiny`` shrinks every workload for the self-tests.

All timings are host time (the simulator has no cycle model), rescaled
to a fixed host speed by the reference slices of ``refclock.py`` run
between ops, so that the shared host's drifting speed cancels out; the
detail line carries the plain host latencies as well.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name each
metric with its unit and carry the details (sample counts, the tail
percentile, ``error_rate``, ``sim_digest``).  A full report, and in a
traced run the spans, are written under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from refclock import REF_SLICE_S, RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "success_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: Set-ups per run; ``setup_s`` reports the median.
SETUPS = 7
#: Interpreter launches timing the workload's imports; the fastest counts.
IMPORT_SAMPLES = 7
#: What each launch runs.  numpy (not the program's code) and the
#: reference load are imported untimed; then the workload's modules are
#: imported in process CPU time, so waiting on the disk does not count,
#: and rescaled by reference slices timed the same way right after.
IMPORT_PROBE = """\
import gc, sys, time
sys.path.insert(0, {here!r})
import numpy, refclock
refclock.reference_load()
start = time.process_time()
{imports}
spent = time.process_time() - start
gc.disable()
slices = []
for _ in range(5):
    begin = time.process_time()
    refclock.reference_load()
    slices.append(time.process_time() - begin)
print(spent * refclock.REF_SLICE_S / sorted(slices)[2])
"""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(modules) -> float:
    """Reference seconds a fresh interpreter spends importing ``modules``.

    The minimum over ``IMPORT_SAMPLES`` launches of ``IMPORT_PROBE``: a
    launch is only ever slowed down by the host, and for minutes at a
    time whole runs saw most of their launches slowed (the median then
    moved by up to 1.4x between sets), while the fastest launch stayed.
    """
    code = IMPORT_PROBE.format(
        here=str(HERE),
        imports="\n".join(f"import {module}" for module in modules))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return min(samples)


def timed_setups(workload, ref) -> Tuple[Any, float]:
    """Set up ``SETUPS`` times; keep the last context, return the median.

    A reference slice follows each set-up.
    """
    seconds = []
    ctx = None
    for _ in range(SETUPS):
        if ctx is not None:
            workload.teardown(ctx)
        begin = time.perf_counter()
        ctx = workload.setup()
        seconds.append(time.perf_counter() - begin)
        ref.sample()
    return ctx, statistics.median(seconds)


def setup_seconds(host_s: float, slices) -> float:
    """Rescale set-up host seconds by the ``(start, end)`` slices run
    after the set-ups."""
    return host_s * REF_SLICE_S / statistics.median(e - b for b, e in slices)


def score(workload, records) -> Dict[str, Any]:
    """Verify every op and hash the simulated outputs.

    An op fails when it raised or when its output does not verify.
    ``sim_digest`` covers the first ``workload.digest_ops`` ops, which
    every run completes, so it repeats exactly at one seed.
    """
    failed = 0
    digest = hashlib.sha256()
    for record in records:
        try:
            record.ok = (record.error is None
                         and bool(workload.check(record.item, record.output)))
        except Exception:  # noqa: BLE001 -- a verifier crash is a failure
            record.ok = False
        failed += not record.ok
        if record.index < workload.digest_ops:
            fields = (workload.sim_fields(record.output)
                      if record.error is None
                      else ["error", record.error.split(":")[0]])
            digest.update(json.dumps(fields, sort_keys=True,
                                     default=str).encode())
            digest.update(b"\n")
    return {"failed": failed, "attempted": len(records),
            "sim_digest": digest.hexdigest(),
            "digest_ops": min(len(records), workload.digest_ops)}


def summarize(records, wall: float, setup_s: float,
              rss: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics plus the details printed beside them.

    Every time is in reference seconds (``refclock``).  ``ops_per_s`` is
    correct ops over the loop's busy time; the loop ends on a cycle
    boundary, so every run measures whole cycles of the workload's op
    mix.  A failed op counts as missing any latency limit: it enters the
    latency percentiles as the whole run's busy time.
    """
    from workloads import tail
    latencies = [r.seconds if r.ok else max(wall, r.seconds)
                 for r in records]
    succeeded = sum(1 for r in records if r.ok)
    tail_s, percentile, beyond = tail(latencies)
    metrics = {
        "ops_per_s": succeeded / wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "success_rate": succeeded / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    details = {
        "samples": len(records),
        "busy_s": wall,
        "op_tail_percentile": percentile,
        "op_tail_beyond": beyond,
        "error_rate": 1.0 - succeeded / len(records),
        "latencies_s": [r.seconds for r in records],
        "host_latencies_s": [r.host_seconds for r in records],
    }
    return metrics, details


def measure(workload, seed: int, ref, *, seconds=None, count=None,
            tracer=None):
    """One measured pass: set up, drive, tear down, verify.

    Returns the records, the busy time and ``setup_s`` in reference
    seconds (``ref``), the scores and the traced layer extras.
    """
    import_s = import_seconds(workload.imports)
    mark = len(ref.slices)
    if tracer is not None:
        import tracing
        tracing.install(tracer)
    try:
        ctx, setup_host = timed_setups(workload, ref)
        setup_s = import_s + setup_seconds(setup_host, ref.slices[mark:])
        if tracer is not None:
            tracer.reset()
        try:
            records, wall = workload.drive(ctx, workload.inputs(seed), ref,
                                           seconds=seconds, count=count,
                                           tracer=tracer)
            extras = (workload.layer_extras(ctx, records, tracer)
                      if tracer is not None else {})
        finally:
            workload.teardown(ctx)
    finally:
        if tracer is not None:
            tracer.remove()
    scored = score(workload, records)
    return records, wall, setup_s, scored, extras


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one benchmark invocation; return ``(result, report)``."""
    from workloads import WORKLOADS, WORK_DIR
    workload = WORKLOADS[workload_name](tiny=tiny)
    # A traced pass must not run slices inside an op (inside a span).
    ref = RefClock(inside_ops=not trace)
    same = True
    if not trace:
        records, wall, setup_s, scored, _ = measure(workload, seed, ref,
                                                    seconds=seconds)
        metrics, details = summarize(records, wall, setup_s, peak_rss_mb())
        units = END_TO_END
        report = {"details": details, **scored,
                  "timeline": {"slices": ref.slices,
                               "ops": [r.span for r in records]}}
    else:
        import tracing
        # Both passes run the same fixed ops (the digest ops), so the
        # per-layer totals and the overhead do not depend on host speed.
        count = workload.digest_ops
        records, wall, setup_s, scored, _ = measure(workload, seed, ref,
                                                    count=count)
        plain, plain_details = summarize(records, wall, setup_s,
                                         peak_rss_mb())
        tracer = tracing.Tracer()
        t_records, t_wall, t_setup_s, t_scored, extras = measure(
            workload, seed, ref, count=count, tracer=tracer)
        traced, traced_details = summarize(t_records, t_wall, t_setup_s,
                                           peak_rss_mb())
        metrics = tracing.layer_metrics(tracer, extras)
        units = dict(tracing.LAYER_METRICS)
        for name, unit in END_TO_END.items():
            metrics[f"trace_overhead.{name}"] = traced[name] - plain[name]
            units[f"trace_overhead.{name}"] = unit
        spans_path = WORK_DIR / f"spans-{workload_name}-{seed}.jsonl"
        spans = tracer.write(spans_path)
        # Tracing must not change a single simulated output.
        same = t_scored["sim_digest"] == scored["sim_digest"]
        scored = t_scored
        report = {"untraced": plain, "untraced_details": plain_details,
                  "traced": traced, "traced_details": traced_details,
                  "digest_unchanged_by_tracing": same,
                  "spans_file": str(spans_path.relative_to(ROOT)),
                  "spans": spans, **scored}
    result = {
        "correct": scored["failed"] == 0 and same,
        "attempted": scored["attempted"],
        "failed": scored["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    report.update(workload=workload_name, seed=seed, seconds=seconds,
                  trace=trace, tiny=tiny, ref_slices=len(ref.slices),
                  ref_slice_median_s=ref.median_slice())
    return result, report


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the "
              f"repository root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, WORK_DIR
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), tiny=args.tiny)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK_DIR / name).write_text(json.dumps({"result": result, **report},
                                            indent=1, default=str))
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    # The timeline (every slice and op span) goes to the report file only.
    report.pop("timeline", None)
    print(json.dumps({"detail": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
