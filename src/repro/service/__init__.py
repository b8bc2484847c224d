"""Attack-as-a-service layer (ARCHITECTURE.md §11).

Three pieces, stacked:

* :mod:`repro.service.store` -- a content-addressed snapshot store: an
  in-memory LRU tier fronting a spill-to-disk tier of serialized
  :class:`~repro.cpu.machine.MachineSnapshot` artifacts, keyed by a
  digest of (machine profile, prefix identity).
* :mod:`repro.service.jobs` -- the job vocabulary: machine/victim specs
  described by value, one handler per attack kind (Read_PHR, extended
  read, Pathfinder trace recovery, Read/Write_PHT, AES key recovery,
  image recovery), and structured :class:`JobResult` /
  :class:`JobFailure` outcomes.
* :mod:`repro.service.pool` -- one thread pool per machine profile and
  the async :class:`ServiceClient` API (``submit``/``gather`` with
  per-job timeouts and retry budgets, graceful drain on shutdown).

What the service shares with the layers below it lives below it, so no
attack module imports this package: the content digests in
:mod:`repro.isa.identity`, :class:`~repro.isa.trace.TraceCache` next to
the traces it holds, and :class:`~repro.utils.lru.CacheStats`, the
counters of every cache.  They are re-exported here for service clients.
"""

from repro.isa.identity import (
    content_key,
    machine_digest,
    profile_digest,
    program_digest,
)
from repro.isa.trace import TraceCache
from repro.service.jobs import (
    HANDLERS,
    Job,
    JobFailure,
    JobResult,
    MachineSpec,
    ServiceError,
    VictimProgramSpec,
    job_kinds,
)
from repro.service.pool import (
    AttackService,
    JobHandle,
    ServiceClient,
    WorkerContext,
)
from repro.service.store import SnapshotStore, StoreError
from repro.utils.lru import CacheStats

__all__ = [
    "AttackService",
    "CacheStats",
    "HANDLERS",
    "Job",
    "JobFailure",
    "JobHandle",
    "JobResult",
    "MachineSpec",
    "ServiceClient",
    "ServiceError",
    "SnapshotStore",
    "StoreError",
    "TraceCache",
    "VictimProgramSpec",
    "WorkerContext",
    "content_key",
    "job_kinds",
    "machine_digest",
    "profile_digest",
    "program_digest",
]
