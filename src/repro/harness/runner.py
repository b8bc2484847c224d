"""The deterministic trial runner.

Execution model
---------------

A *trial* is a pure-ish function ``trial(context, index, rng)`` whose
result depends only on its three arguments:

* ``context`` -- built once per worker process by ``setup(spec)`` from a
  picklable ``spec`` (a machine + attack provisioned and trained, say).
  ``setup`` must be deterministic: every worker builds an equivalent
  context.
* ``index`` -- the trial's global 0-based index.
* ``rng`` -- a :class:`DeterministicRng` forked from the harness seed by
  ``index`` (see :func:`trial_rng`), so a trial draws the same stream no
  matter which worker runs it, in which order, in which chunk.

Trials that mutate their context's machine must reset it (the
:meth:`Machine.restore <repro.cpu.machine.Machine.restore>` checkpoint
pattern) so results stay order-independent; that is the whole
determinism contract, and ``tests/test_harness.py`` pins ``workers=N``
bit-identical to ``workers=1``.

Parallelism uses a ``fork``-context ``ProcessPoolExecutor`` so that
``setup``/``trial`` resolve in the children by module import without a
spawn-safe ``__main__`` dance; where ``fork`` is unavailable the runner
degrades to the serial path (``TrialReport.parallel`` says which ran).
Scheduling is chunked: ``chunk_size`` trials ship per task to amortize
pool round-trips, and failures are captured per trial -- a raising trial
records a :class:`TrialFailure` instead of poisoning its whole chunk.
This pool is the package's one process fan-out: a batch-vectorized
sweep (``vectorize=N``) parallelizes by shipping whole width-``N``
blocks per chunk to the same workers.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.utils.rng import DeterministicRng

#: Default base seed for per-trial RNG forks.
DEFAULT_SEED = 0x7A1A15

#: Environment knob: default worker count for every harness call site
#: (benchmarks, examples) that does not pass one explicitly.
WORKERS_ENV = "REPRO_WORKERS"


def _parse_workers(value, source: str) -> int:
    """Strictly validate a worker count: a positive integer, nothing else.

    Rejects bools, floats (even integral ones -- ``2.0`` workers is a
    caller bug, not a count), and unparsable strings, naming the value
    and where it came from so CLI/env typos surface immediately.
    """
    if isinstance(value, bool):
        raise ValueError(
            f"worker count from {source} must be a positive integer, "
            f"got {value!r}"
        )
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise ValueError(
                f"worker count from {source} must be a positive integer, "
                f"got {value!r}"
            ) from None
    elif not isinstance(value, int):
        raise ValueError(
            f"worker count from {source} must be a positive integer, "
            f"got {value!r} ({type(value).__name__})"
        )
    if value < 1:
        raise ValueError(
            f"worker count from {source} must be >= 1, got {value}"
        )
    return value


def resolve_workers(explicit: Optional[int] = None) -> int:
    """The effective worker count: explicit argument, else ``REPRO_WORKERS``,
    else 1 (serial).  Non-positive or non-integer values raise
    :class:`ValueError` naming the offending source."""
    if explicit is not None:
        return _parse_workers(explicit, "argument")
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    return _parse_workers(raw, WORKERS_ENV)


def trial_rng(seed: int, index: int) -> DeterministicRng:
    """The RNG stream of trial ``index`` under harness ``seed``.

    Forked from a fresh base generator each time, so the stream depends
    only on ``(seed, index)`` -- never on chunking or scheduling order.
    """
    return DeterministicRng(seed).fork(index)


@dataclass(frozen=True)
class TrialFailure:
    """One failed trial, captured without aborting its chunk."""

    index: int
    error: str
    traceback: str


class TrialError(RuntimeError):
    """Raised (under ``on_error='raise'``) after any trial failed."""

    def __init__(self, failures: Sequence[TrialFailure]):
        self.failures = list(failures)
        first = self.failures[0]
        super().__init__(
            f"{len(self.failures)} trial(s) failed; first: trial "
            f"{first.index}: {first.error}"
        )


@dataclass
class TrialReport:
    """Outcome of one :func:`run_trials` fan-out."""

    #: Per-trial results ordered by trial index (``None`` for failures).
    values: List[Any]
    failures: List[TrialFailure] = field(default_factory=list)
    workers: int = 1
    chunks: int = 0
    #: Whether a process pool actually ran (False for ``workers=1`` and
    #: for the no-``fork``-platform serial fallback).
    parallel: bool = False
    elapsed: float = 0.0
    #: Batch width the vectorized fast path ran with (1 = scalar trials).
    vectorize: int = 1
    #: Per-trial wall-clock seconds ordered by trial index (``None`` for
    #: trials that never ran).  Trials in a vectorized block share the
    #: block's elapsed time evenly (the scheduler cannot see inside one
    #: batch call).
    timings: List[Optional[float]] = field(default_factory=list)
    #: True when a KeyboardInterrupt/shutdown drained the run early:
    #: completed chunks are reported, pending trials carry a
    #: ``CancelledError`` failure.
    interrupted: bool = False

    @property
    def count(self) -> int:
        """Total trials scheduled."""
        return len(self.values)

    @property
    def completed(self) -> int:
        """Trials that returned a value."""
        return len(self.values) - len(self.failures)

    def timing_summary(self):
        """p50/p99/mean percentiles over the per-trial wall times.

        Returns a :class:`repro.utils.stats.TimingSummary` (or ``None``
        when no trial was timed).  The same helper feeds the service
        load generator, so harness and service latency numbers are
        directly comparable.
        """
        from repro.utils.stats import summarize_timings

        return summarize_timings(self.timings)


def _chunk_indices(count: int, chunk_size: Optional[int], workers: int,
                   width: int) -> List[range]:
    """Split ``range(count)`` into contiguous scheduling chunks.

    The default aims at ~4 chunks per worker so a slow chunk cannot
    serialize the tail, while keeping pool round-trips amortized.  It is
    rounded up to a multiple of the batch ``width``, because a chunk
    cuts every vectorize block it holds to its own size.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-count // (4 * workers)))
        chunk_size = -(-chunk_size // width) * width
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    return [range(low, min(low + chunk_size, count))
            for low in range(0, count, chunk_size)]


def _run_chunk(context: Any, trial: Callable, indices: range,
               seed: int) -> List[tuple]:
    """Run one chunk inline.

    Returns ``(index, ok, payload, seconds)`` quadruples -- the per-trial
    wall time rides along so the parent can report latency percentiles
    without a second timing pass.
    """
    results = []
    for index in indices:
        begin = time.perf_counter()
        try:
            value = trial(context, index, trial_rng(seed, index))
            results.append((index, True, value,
                            time.perf_counter() - begin))
        except Exception as exc:  # noqa: BLE001 -- per-trial accounting
            results.append((
                index, False,
                (f"{type(exc).__name__}: {exc}", traceback.format_exc()),
                time.perf_counter() - begin,
            ))
    return results


def _run_chunk_batched(context: Any, trial: Callable, batch_trial: Callable,
                       indices: range, seed: int, width: int) -> List[tuple]:
    """Run one chunk through ``batch_trial`` in blocks of ``width`` trials.

    ``batch_trial(context, indices, rngs)`` must return one value per
    index, in order.  Each trial still sees the RNG stream
    ``trial_rng(seed, index)``, so a batched run is bit-identical to the
    scalar path for trials that honor the determinism contract.  A block
    whose batch call raises -- or returns the wrong number of values --
    falls back to scalar ``trial`` calls with *fresh* RNG forks, so one
    misbehaving block degrades to the slow path instead of failing
    ``width`` trials at once.
    """
    results: List[tuple] = []
    index_list = list(indices)
    for low in range(0, len(index_list), width):
        block = index_list[low:low + width]
        begin = time.perf_counter()
        try:
            values = batch_trial(context, list(block),
                                 [trial_rng(seed, index) for index in block])
            if values is None or len(values) != len(block):
                raise ValueError(
                    f"batch_trial returned "
                    f"{'no values' if values is None else len(values)} "
                    f"for {len(block)} trials"
                )
        except Exception:  # noqa: BLE001 -- degrade to the scalar path
            results.extend(_run_chunk(context, trial, block, seed))
            continue
        # One batch call is one timing event; split it evenly since the
        # scheduler cannot attribute lockstep work to single trials.
        per_trial = (time.perf_counter() - begin) / len(block)
        results.extend(
            (index, True, value, per_trial)
            for index, value in zip(block, values))
    return results


#: Worker-process context, built once by the pool initializer.
_WORKER_CONTEXT: Any = None


def _worker_initialize(setup: Optional[Callable], spec: Any) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = setup(spec) if setup is not None else None


def _worker_run_chunk(trial: Callable, indices: range, seed: int,
                      batch_trial: Optional[Callable] = None,
                      vectorize: int = 1) -> List[tuple]:
    if batch_trial is not None:
        return _run_chunk_batched(_WORKER_CONTEXT, trial, batch_trial,
                                  indices, seed, vectorize)
    return _run_chunk(_WORKER_CONTEXT, trial, indices, seed)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or None where unsupported."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def run_trials(
    trial: Callable[[Any, int, DeterministicRng], Any],
    count: int,
    *,
    setup: Optional[Callable[[Any], Any]] = None,
    spec: Any = None,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    on_error: str = "raise",
    progress: Optional[Callable[[int, int], None]] = None,
    vectorize: Optional[int] = None,
    batch_trial: Optional[Callable[[Any, List[int], List[DeterministicRng]],
                                   Sequence[Any]]] = None,
) -> TrialReport:
    """Run ``count`` independent trials, optionally across processes.

    ``trial``/``setup`` must be module-level callables (picklable by
    qualified name) when ``workers > 1``; ``spec`` and every trial result
    must be picklable.  ``progress(done, total)`` fires in the parent as
    chunks complete.  ``on_error`` is ``'raise'`` (default; raise
    :class:`TrialError` after all trials ran) or ``'collect'`` (return
    the report with failures recorded and ``values[i] is None``).

    The vectorized fast path: pass ``batch_trial(context, indices, rngs)
    -> values`` plus ``vectorize=N`` and each chunk runs in blocks of up
    to ``N`` trials through one batch call (a
    :class:`~repro.batch.BatchMachine` sweep, say) instead of ``N``
    scalar ``trial`` calls.  ``trial`` stays required -- it is the
    semantic reference and the per-block fallback when a batch call
    raises or returns the wrong number of values.

    ``workers=W`` plus ``vectorize=N`` is the one multi-process path: it
    fans chunks of whole width-``N`` blocks (the default chunk is a
    multiple of ``N``) out over ``W`` ``fork`` workers, and the report is
    bit-identical to the serial ``workers=1`` run.
    """
    if count < 0:
        raise ValueError(f"trial count must be >= 0, got {count}")
    if on_error not in ("raise", "collect"):
        raise ValueError(f"unknown on_error mode {on_error!r}")
    if vectorize is not None:
        if not isinstance(vectorize, int) or isinstance(vectorize, bool) \
                or vectorize < 1:
            raise ValueError(
                f"vectorize must be a positive integer, got {vectorize!r}")
        if batch_trial is None:
            raise ValueError("vectorize requires a batch_trial callable")
    width = vectorize if batch_trial is not None else 1
    if width is None:
        width = 1
    workers = resolve_workers(workers)
    start = time.perf_counter()
    values: List[Any] = [None] * count
    timings: List[Optional[float]] = [None] * count
    failures: List[TrialFailure] = []
    interrupted = False
    if count == 0:
        return TrialReport(values=values, workers=workers, parallel=False,
                           vectorize=width)

    chunks = _chunk_indices(count, chunk_size, workers, width)
    mp_context = _fork_context() if workers > 1 else None
    parallel = workers > 1 and mp_context is not None
    touched = [False] * count

    def absorb(chunk_results: List[tuple]) -> None:
        for index, ok, payload, seconds in chunk_results:
            touched[index] = True
            timings[index] = seconds
            if ok:
                values[index] = payload
            else:
                error, trace = payload
                failures.append(TrialFailure(index=index, error=error,
                                             traceback=trace))

    def broken_pool_records(chunk: range) -> List[tuple]:
        return [
            (index, False,
             ("BrokenProcessPool: worker process died "
              "before the chunk completed",
              "".join(traceback.format_stack())),
             None)
            for index in chunk
        ]

    if not parallel:
        context = setup(spec) if setup is not None else None
        done = 0
        try:
            for chunk in chunks:
                if batch_trial is not None:
                    absorb(_run_chunk_batched(context, trial, batch_trial,
                                              chunk, seed, width))
                else:
                    absorb(_run_chunk(context, trial, chunk, seed))
                done += len(chunk)
                if progress is not None:
                    progress(done, count)
        except KeyboardInterrupt:
            # Graceful drain: everything absorbed so far stays; the
            # remaining trials are recorded as cancelled below.
            interrupted = True
    else:
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            mp_context=mp_context,
            initializer=_worker_initialize,
            initargs=(setup, spec),
        )
        processed: set = set()
        try:
            futures = {
                pool.submit(_worker_run_chunk, trial, chunk, seed,
                            batch_trial, width): chunk
                for chunk in chunks
            }
            done = 0
            try:
                for future in as_completed(futures):
                    chunk = futures[future]
                    processed.add(future)
                    try:
                        absorb(future.result())
                    except BrokenProcessPool:
                        # A worker died (os._exit, OOM kill, segfault in
                        # a native extension) and took the pool with it.
                        # The executor cannot say which chunk crashed
                        # it, so the chunk attached to each failed
                        # future is recorded trial by trial and the
                        # remaining futures drain the same way --
                        # on_error='collect' still returns a full report
                        # instead of leaking the exception.
                        absorb(broken_pool_records(chunk))
                    done += len(chunk)
                    if progress is not None:
                        progress(done, count)
            except KeyboardInterrupt:
                # Graceful drain: cancel every not-yet-running chunk,
                # keep every chunk that already finished (including any
                # that completed during the interrupt window), and let
                # the cancelled tail surface as per-trial failures.
                interrupted = True
                for future in futures:
                    future.cancel()
                for future, chunk in futures.items():
                    if future in processed or not future.done() \
                            or future.cancelled():
                        continue
                    try:
                        absorb(future.result())
                    except BrokenProcessPool:
                        absorb(broken_pool_records(chunk))
        finally:
            pool.shutdown(wait=not interrupted, cancel_futures=interrupted)

    if interrupted:
        if on_error == "raise":
            raise KeyboardInterrupt
        for index in range(count):
            if not touched[index]:
                failures.append(TrialFailure(
                    index=index,
                    error="CancelledError: pending chunk cancelled by "
                          "KeyboardInterrupt drain",
                    traceback="",
                ))

    failures.sort(key=lambda failure: failure.index)
    report = TrialReport(
        values=values,
        failures=failures,
        workers=workers,
        chunks=len(chunks),
        parallel=parallel,
        elapsed=time.perf_counter() - start,
        vectorize=width,
        timings=timings,
        interrupted=interrupted,
    )
    if failures and on_error == "raise":
        raise TrialError(failures)
    return report
