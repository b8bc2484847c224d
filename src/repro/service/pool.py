"""Profile-sharded worker pool + async job API (ARCHITECTURE.md §11).

:class:`AttackService` owns a set of *shards*, one per distinct machine
profile (full-config digest).  Each shard runs ``workers_per_profile``
threads; each thread owns one long-lived :class:`~repro.cpu.machine.
Machine` built from the shard's :class:`~repro.service.jobs.MachineSpec`
and restored to a pristine snapshot between jobs.  All workers share
the service's :class:`~repro.service.store.SnapshotStore`, so the
expensive prefix work one job pays for (victim profiling runs, primed
states, AES leak preparation) is served to every later job against the
same (profile, victim) -- across workers, shards, and service restarts.

Threads (not processes) are the right worker substrate here: the jobs
are pure-Python simulation whose hot loops hold the GIL anyway, and a
thread can hand live ``MachineSnapshot`` objects to the in-memory store
tier without serialization.  Cross-process scaling belongs to the trial
harness (:mod:`repro.harness.runner`), which the service does not
replace -- it serves *interactive, heterogeneous* requests, not bulk
homogeneous trials.

Dispatch is queue-depth aware: within a shard every worker has its own
queue (so a worker's warm state follows its backlog), and a new job
goes to the worker with the fewest queued + in-flight jobs.

Lifecycle: ``submit`` returns a :class:`JobHandle` immediately;
``gather`` (or ``handle.result()``) blocks with deadline handling;
``shutdown(drain=True)`` finishes queued work then stops, while
``drain=False`` cancels queued jobs (completed results are kept) --
the service twin of the trial harness's KeyboardInterrupt drain.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.service.jobs import (
    HANDLERS,
    Job,
    JobFailure,
    JobResult,
    MachineSpec,
    ServiceError,
    format_failure,
)

#: Queue sentinel telling a worker thread to exit.
_STOP = object()

Outcome = Union[JobResult, JobFailure]


class WorkerContext:
    """One worker thread's private machine + the shared store.

    The machine is built once (per worker lifetime) and restored to its
    pristine construction snapshot at every :meth:`fresh_machine` call,
    so handlers get fresh-machine semantics without fresh-machine cost.
    """

    def __init__(self, name: str, spec: MachineSpec, store,
                 trace_cache=None) -> None:
        self.name = name
        self.spec = spec
        self.store = store
        #: Shared :class:`~repro.isa.trace.TraceCache` (or None):
        #: batched handlers pass it to ``run_batch`` so repeated control
        #: flows replay captured traces instead of re-interpreting.
        self.trace_cache = trace_cache
        self.machine = spec.build()
        self._pristine = self.machine.snapshot()
        #: Jobs this worker completed (results + failures), for the
        #: service's load accounting.
        self.jobs_run = 0

    def fresh_machine(self):
        """The worker's machine, restored to its pristine state."""
        self.machine.restore(self._pristine)
        return self.machine


class JobHandle:
    """Asynchronous handle to one submitted job.

    State machine: ``pending`` (queued) -> ``running`` (claimed by a
    worker) -> ``done`` (outcome set).  The first transition to ``done``
    wins -- a worker finishing after the deadline already expired the
    handle finds it done and discards its late outcome, so callers
    never observe a result mutating.
    """

    def __init__(self, job_id: str, job: Job) -> None:
        self.job_id = job_id
        self.job = job
        self.submitted_at = time.monotonic()
        self.deadline = (None if job.timeout is None
                         else self.submitted_at + job.timeout)
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._outcome: Optional[Outcome] = None
        self._state = "pending"

    # -- worker side ----------------------------------------------------

    def _claim(self) -> bool:
        """Transition pending -> running; False if expired/cancelled.

        A job that sat queued past its deadline fails fast here -- the
        worker never runs it, which is what keeps one slow job from
        making every queued job behind it blow its own budget too.
        """
        with self._lock:
            if self._outcome is not None:
                return False
            if (self.deadline is not None
                    and time.monotonic() > self.deadline):
                self._outcome = JobFailure(
                    job_id=self.job_id,
                    kind=self.job.kind,
                    tag=self.job.tag,
                    error=(f"TimeoutError: expired after "
                           f"{self.job.timeout:.3f}s before any worker "
                           f"claimed it"),
                )
                self._event.set()
                return False
            self._state = "running"
            return True

    def _finish(self, outcome: Outcome) -> bool:
        """Record the outcome; False (discarded) if already done."""
        with self._lock:
            if self._outcome is not None:
                return False
            self._outcome = outcome
            self._state = "done"
            self._event.set()
            return True

    def _expire(self, reason: str) -> bool:
        """Force a failure outcome (deadline/shutdown); False if done."""
        return self._finish(JobFailure(
            job_id=self.job_id,
            kind=self.job.kind,
            tag=self.job.tag,
            error=reason,
        ))

    # -- caller side ----------------------------------------------------

    def done(self) -> bool:
        return self._event.is_set()

    @property
    def state(self) -> str:
        with self._lock:
            return "done" if self._outcome is not None else self._state

    def result(self, timeout: Optional[float] = None) -> Outcome:
        """Block until the job finishes, expires, or ``timeout`` passes.

        Enforces the *job's* deadline: when it passes with the job still
        pending or running, the handle flips to a timeout failure (the
        worker's eventual completion is discarded).  An elapsed caller
        ``timeout`` with no job deadline raises :class:`ServiceError`
        instead -- the job is still in flight and its handle stays
        usable.
        """
        caller_deadline = (None if timeout is None
                           else time.monotonic() + timeout)
        while True:
            waits = [w for w in (self.deadline, caller_deadline)
                     if w is not None]
            remaining = min(waits) - time.monotonic() if waits else None
            if self._event.wait(timeout=remaining):
                assert self._outcome is not None
                return self._outcome
            now = time.monotonic()
            if self.deadline is not None and now >= self.deadline:
                self._expire(
                    f"TimeoutError: still {self.state} "
                    f"{now - self.submitted_at:.3f}s after submission "
                    f"(timeout {self.job.timeout:.3f}s)")
                assert self._outcome is not None
                return self._outcome
            if caller_deadline is not None and now >= caller_deadline:
                raise ServiceError(
                    f"job {self.job_id} ({self.job.kind}) still "
                    f"{self.state} after the {timeout:.3f}s gather wait")


class _WorkerSlot:
    """One worker thread with its private queue (shard-internal)."""

    def __init__(self, context: WorkerContext) -> None:
        self.context = context
        self.queue: "queue.Queue" = queue.Queue()
        self.busy = False
        self.thread: Optional[threading.Thread] = None

    def depth(self) -> int:
        return self.queue.qsize() + (1 if self.busy else 0)


class _Shard:
    """All workers serving one machine profile."""

    def __init__(self, service: "AttackService", spec: MachineSpec,
                 digest: str, workers: int) -> None:
        self.spec = spec
        self.digest = digest
        self.slots: List[_WorkerSlot] = []
        for index in range(workers):
            context = WorkerContext(
                name=f"{digest[:8]}/w{index}", spec=spec,
                store=service.store, trace_cache=service.trace_cache)
            slot = _WorkerSlot(context)
            slot.thread = threading.Thread(
                target=service._worker_loop, args=(slot,),
                name=f"repro-service-{context.name}", daemon=True)
            self.slots.append(slot)
        for slot in self.slots:
            slot.thread.start()

    def least_loaded(self) -> _WorkerSlot:
        return min(self.slots, key=_WorkerSlot.depth)

    def depth(self) -> int:
        return sum(slot.depth() for slot in self.slots)


class AttackService:
    """The attack service: submit jobs, gather outcomes, drain cleanly.

    ``store`` is shared by every worker (pass ``None`` to run without
    cross-job checkpoint reuse -- the cold baseline the load benchmark
    measures against).  Shards are created on first use per profile, up
    to ``max_profiles``.
    """

    def __init__(self, store=None, workers_per_profile: int = 2,
                 max_profiles: int = 8, trace_cache=None) -> None:
        if workers_per_profile < 1:
            raise ServiceError(
                f"workers_per_profile must be >= 1, "
                f"got {workers_per_profile}")
        if max_profiles < 1:
            raise ServiceError(f"max_profiles must be >= 1, "
                               f"got {max_profiles}")
        self.store = store
        #: Shared architectural trace cache handed to every worker
        #: context; GIL-bound thread workers can share it without locks.
        self.trace_cache = trace_cache
        self.workers_per_profile = workers_per_profile
        self.max_profiles = max_profiles
        self._shards: Dict[str, _Shard] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0

    # -- submission -----------------------------------------------------

    def submit(self, job: Job) -> JobHandle:
        """Queue ``job`` on its profile's least-loaded worker."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down")
            digest = job.machine.digest()
            shard = self._shards.get(digest)
            if shard is None:
                if len(self._shards) >= self.max_profiles:
                    raise ServiceError(
                        f"profile limit reached ({self.max_profiles} "
                        f"shards); shut down or raise max_profiles")
                shard = _Shard(self, job.machine, digest,
                               self.workers_per_profile)
                self._shards[digest] = shard
            handle = JobHandle(f"job-{next(self._ids):05d}", job)
            self.jobs_submitted += 1
            shard.least_loaded().queue.put(handle)
        return handle

    def gather(self, handles: Sequence[JobHandle],
               on_error: str = "collect",
               timeout: Optional[float] = None) -> List[Outcome]:
        """Outcomes of ``handles``, in submission order.

        ``on_error='collect'`` returns :class:`JobFailure` records in
        place; ``'raise'`` raises :class:`ServiceError` on the first
        failure (remaining jobs keep running -- their handles stay
        valid).  ``timeout`` bounds the *total* wait across all handles.
        """
        if on_error not in ("collect", "raise"):
            raise ServiceError(
                f"on_error must be 'collect' or 'raise', got {on_error!r}")
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes: List[Outcome] = []
        for handle in handles:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            outcome = handle.result(timeout=remaining)
            if on_error == "raise" and isinstance(outcome, JobFailure):
                raise ServiceError(
                    f"job {outcome.job_id} ({outcome.kind}) failed: "
                    f"{outcome.error}")
            outcomes.append(outcome)
        return outcomes

    # -- worker loop ----------------------------------------------------

    def _worker_loop(self, slot: _WorkerSlot) -> None:
        context = slot.context
        while True:
            item = slot.queue.get()
            if item is _STOP:
                break
            handle: JobHandle = item
            if not handle._claim():
                with self._lock:
                    self.jobs_failed += 1  # expired in queue
                continue
            slot.busy = True
            try:
                outcome = self._run_job(context, handle)
            finally:
                slot.busy = False
            delivered = handle._finish(outcome)
            context.jobs_run += 1
            with self._lock:
                if not delivered:
                    # Late finish: the handle already timed out; its
                    # recorded outcome is the failure, ours is dropped.
                    self.jobs_failed += 1
                elif isinstance(outcome, JobFailure):
                    self.jobs_failed += 1
                else:
                    self.jobs_completed += 1

    def _run_job(self, context: WorkerContext,
                 handle: JobHandle) -> Outcome:
        job = handle.job
        handler = HANDLERS[job.kind]
        started = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                value = handler(context, job.params)
                return JobResult(
                    job_id=handle.job_id,
                    kind=job.kind,
                    tag=job.tag,
                    value=value,
                    seconds=time.perf_counter() - started,
                    attempts=attempts,
                    worker=context.name,
                )
            except Exception as exc:
                if attempts >= job.retry_budget:
                    return format_failure(
                        handle.job_id, job, exc,
                        seconds=time.perf_counter() - started,
                        attempts=attempts, worker=context.name)
                # Retry from scratch; fresh_machine() in the handler
                # discards whatever half-mutated state the failure left.

    # -- lifecycle ------------------------------------------------------

    def shutdown(self, drain: bool = True) -> None:
        """Stop the pool.

        ``drain=True`` lets every queued job run to completion first;
        ``drain=False`` cancels queued (unclaimed) jobs with a
        ``CancelledError`` failure -- running jobs still finish and
        completed outcomes are untouched, mirroring the trial harness's
        interrupt drain.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards = list(self._shards.values())
        for shard in shards:
            for slot in shard.slots:
                if not drain:
                    while True:
                        try:
                            item = slot.queue.get_nowait()
                        except queue.Empty:
                            break
                        if item is _STOP:
                            continue
                        if item._expire("CancelledError: pending job "
                                        "cancelled by service shutdown"):
                            with self._lock:
                                self.jobs_failed += 1
                slot.queue.put(_STOP)
        for shard in shards:
            for slot in shard.slots:
                slot.thread.join()

    def __enter__(self) -> "AttackService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- introspection --------------------------------------------------

    def queue_depths(self) -> Dict[str, int]:
        """Live queued + in-flight counts per profile shard."""
        with self._lock:
            return {digest: shard.depth()
                    for digest, shard in self._shards.items()}

    def stats(self) -> Dict[str, Any]:
        """Service-level accounting (plus store stats when attached)."""
        with self._lock:
            data: Dict[str, Any] = {
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "shards": len(self._shards),
                "workers": sum(len(s.slots) for s in self._shards.values()),
            }
        if self.store is not None:
            data["store"] = self.store.stats.as_dict()
        if self.trace_cache is not None:
            data["trace_cache"] = self.trace_cache.stats.as_dict()
        return data


class ServiceClient:
    """Ergonomic front end over :class:`AttackService`.

    ``submit`` builds the :class:`Job` from keyword arguments;
    ``gather`` forwards to the service.  One client per caller thread
    is conventional but not required -- the service is thread-safe.
    """

    def __init__(self, service: AttackService) -> None:
        self.service = service

    def submit(self, kind: str, machine: Optional[MachineSpec] = None,
               timeout: Optional[float] = None, retry_budget: int = 1,
               tag: Optional[str] = None, **params: Any) -> JobHandle:
        job = Job(
            kind=kind,
            machine=machine if machine is not None else MachineSpec(),
            params=params,
            timeout=timeout,
            retry_budget=retry_budget,
            tag=tag,
        )
        return self.service.submit(job)

    def gather(self, handles: Sequence[JobHandle],
               on_error: str = "collect",
               timeout: Optional[float] = None) -> List[Outcome]:
        return self.service.gather(handles, on_error=on_error,
                                   timeout=timeout)
