"""Per-profile worker pool + async job API (ARCHITECTURE.md §11).

:class:`AttackService` runs one :class:`~concurrent.futures.
ThreadPoolExecutor` per distinct machine profile (full-config digest),
each with ``workers_per_profile`` threads.  Each thread owns one
long-lived :class:`~repro.cpu.machine.Machine` built from the profile's
:class:`~repro.service.jobs.MachineSpec` and restored to a pristine
snapshot between jobs.  All workers share the service's
:class:`~repro.service.store.SnapshotStore`, so the expensive prefix
work one job pays for (victim profiling runs, primed states, AES leak
preparation) is served to every later job against the same (profile,
victim) -- across workers, profiles, and service restarts.

The workers are threads, not the trial harness's fork workers
(:mod:`repro.harness.runner`): the store's memory tier and the trace
cache hold live objects that every worker reads and publishes to, which
a forked worker could do only through serialization.  A profile's
threads take jobs from the executor's one queue, so a job never waits
behind a busy worker while another sits idle.

Lifecycle: ``submit`` returns a :class:`JobHandle` immediately;
``gather`` (or ``handle.result()``) blocks with deadline handling;
``shutdown(drain=True)`` finishes queued work then stops, while
``drain=False`` cancels queued jobs (completed results are kept).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import (
    Future,
    InvalidStateError,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
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

#: Most machine profiles (executors) one service runs.
MAX_PROFILES = 8

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
        #: The machine's construction snapshot: :meth:`fresh_machine`
        #: restores it, and batched handlers seed their replicas from it.
        self.pristine = self.machine.snapshot()

    def fresh_machine(self):
        """The worker's machine, restored to its pristine state."""
        self.machine.restore(self.pristine)
        return self.machine


class JobHandle:
    """Asynchronous handle to one submitted job.

    State machine: ``pending`` (queued) -> ``running`` (claimed by a
    worker) -> ``done`` (outcome set), kept by the handle's
    :class:`~concurrent.futures.Future`.  The first outcome set wins --
    a worker finishing after the deadline already expired the handle
    finds the future done and its late outcome is discarded, so callers
    never observe a result mutating.
    """

    def __init__(self, job_id: str, job: Job) -> None:
        self.job_id = job_id
        self.job = job
        self.submitted_at = time.monotonic()
        self.deadline = (None if job.timeout is None
                         else self.submitted_at + job.timeout)
        self._future: "Future[Outcome]" = Future()

    # -- worker side ----------------------------------------------------

    def _claim(self) -> bool:
        """Transition pending -> running; False if expired.

        A job that sat queued past its deadline fails fast here -- the
        worker never runs it, which is what keeps one slow job from
        making every queued job behind it blow its own budget too.
        """
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self._fail(f"TimeoutError: expired after {self.job.timeout:.3f}s "
                       f"before any worker claimed it")
            return False
        try:
            return self._future.set_running_or_notify_cancel()
        except RuntimeError:
            # result() expired the handle between the check and here.
            return False

    def _settle(self, outcome: Outcome) -> bool:
        """Record the outcome; False (discarded) if already done."""
        try:
            self._future.set_result(outcome)
        except InvalidStateError:
            return False
        return True

    def _fail(self, reason: str) -> None:
        """Force a failure outcome (deadline/shutdown) unless done."""
        self._settle(JobFailure(
            job_id=self.job_id,
            kind=self.job.kind,
            tag=self.job.tag,
            error=reason,
        ))

    # -- caller side ----------------------------------------------------

    def done(self) -> bool:
        return self._future.done()

    @property
    def state(self) -> str:
        if self._future.done():
            return "done"
        return "running" if self._future.running() else "pending"

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
            try:
                return self._future.result(timeout=remaining)
            except FutureTimeoutError:
                pass
            now = time.monotonic()
            if self.deadline is not None and now >= self.deadline:
                self._fail(
                    f"TimeoutError: still {self.state} "
                    f"{now - self.submitted_at:.3f}s after submission "
                    f"(timeout {self.job.timeout:.3f}s)")
                return self._future.result()
            if caller_deadline is not None and now >= caller_deadline:
                raise ServiceError(
                    f"job {self.job_id} ({self.job.kind}) still "
                    f"{self.state} after the {timeout:.3f}s gather wait")


class AttackService:
    """The attack service: submit jobs, gather outcomes, drain cleanly.

    ``store`` is shared by every worker (pass ``None`` to run without
    cross-job checkpoint reuse -- the cold baseline the load benchmark
    measures against).  A profile's executor of ``workers_per_profile``
    threads starts on its first job, up to :data:`MAX_PROFILES`
    profiles.  The executor threads are not daemon threads: a service
    that is never shut down still finishes its queued jobs before the
    interpreter exits.
    """

    def __init__(self, store=None, workers_per_profile: int = 2,
                 trace_cache=None) -> None:
        if workers_per_profile < 1:
            raise ServiceError(
                f"workers_per_profile must be >= 1, "
                f"got {workers_per_profile}")
        self.store = store
        #: Shared architectural trace cache handed to every worker
        #: context; GIL-bound thread workers can share it without locks.
        self.trace_cache = trace_cache
        self.workers_per_profile = workers_per_profile
        self._executors: Dict[str, ThreadPoolExecutor] = {}
        #: ``.context``: the calling executor thread's WorkerContext.
        self._worker = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._cancel_pending = False
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0

    # -- submission -----------------------------------------------------

    def submit(self, job: Job) -> JobHandle:
        """Queue ``job`` on its profile's executor."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down")
            digest = job.machine.digest()
            executor = self._executors.get(digest)
            if executor is None:
                executor = self._start_profile(job.machine, digest)
            handle = JobHandle(f"job-{next(self._ids):05d}", job)
            self.jobs_submitted += 1
            executor.submit(self._serve, handle)
        return handle

    def _start_profile(self, spec: MachineSpec,
                       digest: str) -> ThreadPoolExecutor:
        if len(self._executors) >= MAX_PROFILES:
            raise ServiceError(
                f"profile limit reached ({MAX_PROFILES} profiles); "
                f"shut the service down to start others")
        # Built here, in the caller: a profile that cannot be built
        # raises at submit and leaves no executor behind.
        contexts = [WorkerContext(name=f"{digest[:8]}/w{index}", spec=spec,
                                  store=self.store,
                                  trace_cache=self.trace_cache)
                    for index in range(self.workers_per_profile)]
        executor = ThreadPoolExecutor(
            max_workers=self.workers_per_profile,
            thread_name_prefix=f"repro-service-{digest[:8]}",
            initializer=self._adopt, initargs=(contexts,))
        self._executors[digest] = executor
        return executor

    def _adopt(self, contexts: List[WorkerContext]) -> None:
        """Executor initializer: bind this thread to one context."""
        self._worker.context = contexts.pop(0)

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

    # -- job runner -----------------------------------------------------

    def _serve(self, handle: JobHandle) -> None:
        """Run one job on the calling executor thread; count its end."""
        if self._cancel_pending:
            handle._fail("CancelledError: pending job cancelled by "
                         "service shutdown")
            completed = False
        elif not handle._claim():
            completed = False  # expired in the queue
        else:
            outcome = self._run_job(self._worker.context, handle)
            # A late outcome (the handle already timed out) is dropped;
            # the recorded outcome is the timeout failure.
            completed = (handle._settle(outcome)
                         and isinstance(outcome, JobResult))
        with self._lock:
            if completed:
                self.jobs_completed += 1
            else:
                self.jobs_failed += 1

    def _run_job(self, context: WorkerContext,
                 handle: JobHandle) -> Outcome:
        job = handle.job
        # Looked up per job: perfbench's tracer patches HANDLERS.
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
            self._cancel_pending = not drain
            executors = list(self._executors.values())
        for executor in executors:
            executor.shutdown(wait=True)

    def __enter__(self) -> "AttackService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Service-level accounting (plus store stats when attached)."""
        with self._lock:
            data: Dict[str, Any] = {
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "shards": len(self._executors),
                "workers": len(self._executors) * self.workers_per_profile,
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
