"""Speedup-regression gate over the benchmark result trajectories.

Every passing benchmark appends one record to
``benchmarks/results/<name>.json`` (see ``conftest.append_result``);
each record carries a ``speedups`` dict of every ``extra_info`` key
ending in ``_speedup``.  A bench module with several tests interleaves
their records in one trajectory file, so records are first grouped into
per-test series by their ``bench`` field; this script compares the
newest record of each series against the previous record *with the same
quick/full mode* and fails (exit 1) when any shared speedup key dropped
by more than the threshold (default 20%).

CI runs it right after the quick-mode bench sweep, so a change that
quietly halves a measured speedup fails the build even while the
absolute >=3x floor assertions still pass.

Rules:

* Series with fewer than two same-mode records are skipped (first run
  on a fresh checkout, or first run after a mode flip).
* Speedup keys present in only one of the two records are ignored --
  adding or retiring an arm is not a regression.
* Improvements and small wobbles are reported but never fail.

Usage::

    python benchmarks/check_regression.py
    python benchmarks/check_regression.py --results-dir benchmarks/results
    python benchmarks/check_regression.py --threshold 0.3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_THRESHOLD = 0.20


def load_trajectory(path: Path) -> list:
    """The record list in ``path``; bad files read as empty (skipped)."""
    try:
        trajectory = json.loads(path.read_text())
    except (ValueError, OSError):
        return []
    if not isinstance(trajectory, list):
        return []
    return [record for record in trajectory if isinstance(record, dict)]


def bench_series(trajectory: list) -> "Dict[object, list]":
    """Records grouped into per-test series by their ``bench`` field.

    A bench module with several tests appends all of their records to
    the same trajectory file, interleaved run after run; comparing
    neighbouring records would pair up different tests.  Legacy records
    without a ``bench`` field group under ``None``.  Insertion order
    (and therefore each series' own order) is preserved.
    """
    series: Dict[object, list] = {}
    for record in trajectory:
        series.setdefault(record.get("bench"), []).append(record)
    return series


def latest_pair(trajectory: list) -> Optional[Tuple[dict, dict]]:
    """The newest record and its most recent same-mode predecessor.

    Quick-mode and full-mode runs use different workload sizes, so a
    quick record is only comparable to the previous quick record (and
    full to full).  Returns ``None`` when no such pair exists.
    """
    if len(trajectory) < 2:
        return None
    newest = trajectory[-1]
    mode = newest.get("quick")
    for record in reversed(trajectory[:-1]):
        if record.get("quick") == mode:
            return record, newest
    return None


def compare_speedups(previous: dict, newest: dict,
                     threshold: float) -> List[str]:
    """Regression messages for speedup keys both records carry."""
    before: Dict[str, float] = previous.get("speedups") or {}
    after: Dict[str, float] = newest.get("speedups") or {}
    failures = []
    for key in sorted(set(before) & set(after)):
        try:
            old = float(before[key])
            new = float(after[key])
        except (TypeError, ValueError):
            continue
        if old <= 0:
            continue
        drop = (old - new) / old
        if drop > threshold:
            failures.append(
                f"{key}: {old:.2f}x -> {new:.2f}x "
                f"({drop:.0%} drop > {threshold:.0%} threshold)")
    return failures


def check_results(results_dir: Path,
                  threshold: float = DEFAULT_THRESHOLD) -> int:
    """Check every trajectory under ``results_dir``; 0 = clean, 1 = fail."""
    if not results_dir.is_dir():
        print(f"no results directory at {results_dir}; nothing to check")
        return 0
    trajectories = sorted(results_dir.glob("*.json"))
    if not trajectories:
        print(f"no trajectories under {results_dir}; nothing to check")
        return 0

    failed = False
    for path in trajectories:
        trajectory = load_trajectory(path)
        series = bench_series(trajectory)
        for bench, records in series.items():
            label = path.name if bench is None else f"{path.name}[{bench}]"
            pair = latest_pair(records)
            if pair is None:
                print(f"{label}: {len(records)} comparable record(s), "
                      "skipping")
                continue
            previous, newest = pair
            failures = compare_speedups(previous, newest, threshold)
            mode = "quick" if newest.get("quick") else "full"
            if failures:
                failed = True
                print(f"{label} ({mode}): REGRESSION")
                for message in failures:
                    print(f"  {message}")
            else:
                shared = sorted(set(previous.get("speedups") or {})
                                & set(newest.get("speedups") or {}))
                detail = ", ".join(
                    f"{key}={float((newest['speedups'])[key]):.2f}x"
                    for key in shared) or "no shared speedup keys"
                print(f"{label} ({mode}): ok ({detail})")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when the newest benchmark record regressed any "
                    "speedup by more than the threshold.")
    parser.add_argument("--results-dir", type=Path,
                        default=DEFAULT_RESULTS_DIR,
                        help="trajectory directory (default: "
                             "benchmarks/results)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fractional drop that fails the check "
                             "(default: 0.20)")
    arguments = parser.parse_args(argv)
    if not 0 < arguments.threshold < 1:
        parser.error("--threshold must be a fraction in (0, 1)")
    return check_results(arguments.results_dir, arguments.threshold)


if __name__ == "__main__":
    sys.exit(main())
