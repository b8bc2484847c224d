"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures, prints
a paper-vs-measured comparison (run pytest with ``-s`` to see it live;
the data also lands in each benchmark's ``extra_info``), and *asserts*
the reproduction-level facts -- who wins, which cells are check marks,
where the plateaus sit -- so a regression fails loudly.

Every passing benchmark also appends one record to
``benchmarks/results/<name>.json`` (``name`` = the file stem minus its
``bench_`` prefix): a trajectory of runs in the ``harness_trials.json``
schema -- machine profile, quick/full mode, timing stats, and every
``extra_info`` key ending in ``_speedup`` under ``speedups``.  CI
uploads the whole ``results/`` directory as one artifact.

``--profile`` runs each benchmark under cProfile and dumps the top 25
functions by cumulative time (mirrors ``python -m repro.fuzz --profile``).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Iterable, List, Tuple

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--profile", action="store_true", default=False,
        help="run each benchmark under cProfile and print the top 25 "
             "functions by cumulative time",
    )


def pytest_collection_modifyitems(items):
    """Everything under ``benchmarks/`` carries the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)

#: Quick mode (``REPRO_BENCH_QUICK=1``) shrinks benchmark workloads so
#: the throughput benches can ride along in a fast CI loop.  Statistical
#: assertions about paper-level facts should keep their full populations;
#: only raw operation counts shrink.  The value is stripped before
#: comparing so ``"0 "`` / ``" "`` (trailing whitespace from shell
#: quoting or CI YAML) still count as off.
BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")


def operation_count(full: int, quick: int) -> int:
    """``full`` normally; ``quick`` when ``REPRO_BENCH_QUICK=1`` is set."""
    return quick if BENCH_QUICK else full


def machine_profile() -> dict:
    """The host identity recorded with every result record."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _load_trajectory(path: Path) -> list:
    """The existing trajectory, recovering from corrupt/empty files.

    A truncated or garbled ``results/<name>.json`` (killed run, disk
    full, merge damage) must not poison every future benchmark run: the
    bad file is moved aside to ``<name>.json.corrupt`` and the
    trajectory restarts fresh.  A valid file that is not a list is
    treated the same way.
    """
    if not path.exists():
        return []
    try:
        trajectory = json.loads(path.read_text())
        if not isinstance(trajectory, list):
            raise ValueError(
                f"expected a list trajectory, got {type(trajectory).__name__}")
    except (ValueError, OSError):
        quarantine = path.with_suffix(path.suffix + ".corrupt")
        try:
            os.replace(path, quarantine)
        except OSError:
            pass  # unreadable *and* unmovable: just start fresh
        return []
    return trajectory


def append_result(name: str, record: dict) -> Path:
    """Append ``record`` to the ``results/<name>.json`` trajectory.

    The write is atomic (temp file in the same directory +
    ``os.replace``), so a benchmark interrupted mid-write leaves the
    previous trajectory intact instead of a truncated JSON file.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    trajectory = _load_trajectory(path)
    trajectory.append(record)
    scratch = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    scratch.write_text(json.dumps(trajectory, indent=2) + "\n")
    os.replace(scratch, path)
    return path


def _result_record(item, fixture) -> dict:
    """One trajectory record in the shared results schema."""
    record = {
        "bench": item.name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": BENCH_QUICK,
        "machine": machine_profile(),
    }
    metadata = getattr(fixture, "stats", None)
    stats = getattr(metadata, "stats", None)
    if stats is not None and getattr(stats, "data", None):
        record["timings_s"] = {
            "min": round(stats.min, 6),
            "mean": round(stats.mean, 6),
            "rounds": stats.rounds,
        }
    extra = dict(getattr(fixture, "extra_info", {}) or {})
    speedups = {key: round(float(value), 2)
                for key, value in extra.items() if key.endswith("_speedup")}
    if speedups:
        record["speedups"] = speedups
    rest = {key: value for key, value in extra.items()
            if key not in speedups}
    if rest:
        record["extra"] = rest
    return record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Auto-append a results record for every passing benchmark."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.passed:
        return
    stem = Path(str(item.fspath)).stem
    if not stem.startswith("bench_"):
        return
    fixture = getattr(item, "funcargs", {}).get("benchmark")
    if fixture is None:
        return
    append_result(stem[len("bench_"):], _result_record(item, fixture))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """``--profile``: wrap the benchmark body in cProfile."""
    if not item.config.getoption("--profile"):
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        print(f"\n== cProfile: {item.name} (top 25 by cumulative time) ==")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)


def paired_speedup(fast: Callable[[], object], slow: Callable[[], object],
                   extra_info: dict, prefix: str, rounds: int = 5) -> float:
    """The median of ``rounds`` paired ``slow / fast`` time ratios.

    Each round runs both arms back to back, and the order flips every
    round, so a host slowdown lands on both arms of a pair and their
    ratio cancels it.  Records each arm's median and interquartile range
    in host seconds under ``<prefix>_fast_*`` / ``<prefix>_slow_*`` in
    ``extra_info``.
    """
    def timed(arm: Callable[[], object]) -> Callable[[], float]:
        def run() -> float:
            start = time.perf_counter()
            arm()
            return time.perf_counter() - start
        return run

    return paired_self_timed_speedup(timed(fast), timed(slow), extra_info,
                                     prefix, rounds)


def paired_self_timed_speedup(fast: Callable[[], float],
                              slow: Callable[[], float], extra_info: dict,
                              prefix: str, rounds: int = 5) -> float:
    """:func:`paired_speedup` for arms that time themselves.

    Each arm returns the host seconds of its measured part, so setup it
    does not want timed (starting a service, priming a store) stays out
    of the ratio.  Rounds, ordering and the recorded keys are those of
    :func:`paired_speedup`.
    """
    times: Tuple[List[float], List[float]] = ([], [])
    for round_number in range(rounds):
        for arm in ((0, 1) if round_number % 2 == 0 else (1, 0)):
            times[arm].append((fast, slow)[arm]())
    for name, seconds in zip(("fast", "slow"), times):
        quartiles = statistics.quantiles(seconds, n=4, method="inclusive")
        extra_info[f"{prefix}_{name}_median_s"] = round(
            statistics.median(seconds), 6)
        extra_info[f"{prefix}_{name}_iqr_s"] = round(
            quartiles[2] - quartiles[0], 6)
    return statistics.median(s / max(f, 1e-9) for f, s in zip(*times))


def print_table(title: str, headers: List[str],
                rows: Iterable[Iterable[object]]) -> None:
    """Render an aligned text table to stdout."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rendered_rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
