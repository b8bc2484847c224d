"""Vectorized batch simulation: N machine replicas in lockstep.

:class:`BatchMachine` keeps the conditional-branch-predictor state of N
independent machine replicas as numpy arrays and commits a branch across
the whole batch as a handful of vectorized operations instead of N
Python predictor walks.  The arrays belong to a per-family
:class:`BatchPredictorBackend` (see :mod:`repro.batch.backends`)
resolved from ``MachineConfig.predictor_model`` -- the vector twin of
the scalar model registry in :mod:`repro.cpu.model` -- so every
registered predictor family (``intel-cbp``, ``m1-phr``,
``gshare-tournament``) runs at batch speed.  Each backend is pinned
bit-identical to its scalar family by the parametrized equivalence
suite (``tests/test_batch_equivalence.py``) and the per-family
batch-twin fuzz arms in :mod:`repro.fuzz.diff`.
"""

from repro.batch.backends import (
    BatchPredictorBackend,
    GshareTournamentBatchBackend,
    IntelBatchBackend,
    M1BatchBackend,
    batch_backend_for,
    batch_backend_ids,
    register_batch_backend,
)
from repro.batch.engine import (
    BatchMachine,
    BatchRunResult,
    BatchStateError,
    supports_config,
)

__all__ = [
    "BatchMachine",
    "BatchPredictorBackend",
    "BatchRunResult",
    "BatchStateError",
    "GshareTournamentBatchBackend",
    "IntelBatchBackend",
    "M1BatchBackend",
    "batch_backend_for",
    "batch_backend_ids",
    "register_batch_backend",
    "supports_config",
]
