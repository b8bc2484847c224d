"""Regression pin: golden state hashes for the new batch backends.

The vectorized ``m1-phr`` and ``gshare-tournament`` backends
(:mod:`repro.batch.backends`) are pinned bit-identical to their scalar
families by ``tests/test_batch_equivalence.py``; this module freezes
their *absolute* behaviour the same way ``tests/test_predictor_golden.py``
freezes the Intel scalar model.  Each case runs a deterministic
program through :class:`repro.batch.BatchMachine` and digests the
per-replica results plus every replica's extracted
:class:`~repro.cpu.machine.MachineSnapshot` into SHA-256.  The hashes in
``tests/golden/batch_backend_golden.json`` were captured by running this
module as a script on the tree that introduced the backends::

    PYTHONPATH=src python tests/test_batch_golden.py --capture

Do NOT regenerate these hashes to make a failure pass; a mismatch means
a batch backend changed behaviour, which is exactly what this test
exists to catch.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

np = pytest.importorskip("numpy")

from repro.batch import BatchMachine
from repro.cpu.config import FIRESTORM_M1, TOURNAMENT_BASELINE
from repro.isa.builder import ProgramBuilder
from repro.isa.memory import Memory
from repro.utils.rng import DeterministicRng

GOLDEN_PATH = (pathlib.Path(__file__).parent
               / "golden" / "batch_backend_golden.json")

#: The families this module pins (the Intel batch tables predate the
#: backend seam and are pinned transitively through the scalar golden
#: file plus the equivalence suite).
FAMILY_CONFIGS = {
    "m1-phr": FIRESTORM_M1,
    "gshare-tournament": TOURNAMENT_BASELINE,
}

#: Replicas per case -- enough for divergent inputs to desynchronize state.
REPLICAS = 3


def _canonical(value) -> str:
    """A stable text form of builtins-only snapshot state."""
    if isinstance(value, dict):
        return ("{" + ",".join(f"{_canonical(k)}:{_canonical(v)}"
                               for k, v in sorted(value.items(),
                                                  key=lambda kv: repr(kv[0])))
                + "}")
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canonical(part) for part in value) + ")"
    return repr(value)


def _snapshot_payload(snap) -> tuple:
    perf_state = {name: value for name, value in vars(snap.perf).items()}
    return (snap.cbp, snap.btb, snap.ibp, snap.cache, perf_state,
            snap.threads, snap.ibrs_enabled, snap.phr_capacity,
            snap.predictor_model)


def _digest(stream, batch: BatchMachine) -> str:
    payload = (tuple(stream),
               tuple(_snapshot_payload(batch.extract(i))
                     for i in range(batch.n)))
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _program_case(config) -> str:
    """A two-phase run_batch over per-replica divergent memory."""
    b = ProgramBuilder()
    b.mov_imm("rax", 0x40_0000)
    b.mov_imm("rbx", 0)
    b.mov_imm("rcx", 0)
    b.label("loop")
    b.load("rdx", "rax", 0)
    b.cmp("rdx", imm=100)
    b.jlt("small")
    b.add("rbx", imm=3)
    b.jmp("next")
    b.label("small")
    b.add("rbx", imm=1)
    b.label("next")
    b.add("rax", imm=1)
    b.add("rcx", imm=1)
    b.cmp("rcx", imm=48)
    b.jlt("loop")
    b.halt()
    program = b.build()

    memories = []
    for replica in range(REPLICAS):
        memory = Memory()
        rng = DeterministicRng(0xBEE5 + replica)
        for offset in range(64):
            memory.write(0x40_0000 + offset, 1, rng.value_bits(8))
        memories.append(memory)

    batch = BatchMachine(REPLICAS, config)
    results = batch.run_batch(program, memories, trace="branches")
    stream = [(r.phr_value, r.execution.instructions,
               {name: value for name, value in vars(r.perf).items()})
              for r in results]
    return _digest(stream, batch)


def compute_golden() -> dict:
    cases = {}
    for model_id, config in sorted(FAMILY_CONFIGS.items()):
        key = model_id.replace("-", "_")
        cases[f"program_{key}"] = _program_case(config)
    return cases


def _load_golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; capture it with "
        f"PYTHONPATH=src python {__file__} --capture")
    return json.loads(GOLDEN_PATH.read_text())


GOLDEN_CASE_NAMES = tuple(
    f"program_{model_id.replace('-', '_')}"
    for model_id in sorted(FAMILY_CONFIGS)
)


class TestBatchBackendGoldenPin:
    @pytest.fixture(scope="class")
    def fresh(self) -> dict:
        return compute_golden()

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return _load_golden()

    def test_golden_file_covers_all_cases(self, golden):
        assert sorted(golden) == sorted(GOLDEN_CASE_NAMES)

    @pytest.mark.parametrize("case", GOLDEN_CASE_NAMES)
    def test_case_matches_captured_hash(self, case, fresh, golden):
        assert fresh[case] == golden[case], (
            f"{case}: the batch backend diverged from its captured "
            f"behaviour")


if __name__ == "__main__":
    import sys

    if "--capture" not in sys.argv:
        sys.exit("usage: python tests/test_batch_golden.py --capture")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=2,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
