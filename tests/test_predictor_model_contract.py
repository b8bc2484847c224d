"""The cross-model conformance contract (ARCHITECTURE.md §13).

One parametrized suite, three predictor families.  Every backend that
registers with :mod:`repro.cpu.model` must honor the same observable
contract the trial harness, snapshot store, and replay engine are built
on:

* **snapshot/restore round-trip identity** -- perturbing a machine and
  restoring its checkpoint recovers the exact pre-perturbation state;
* **serialize/deserialize twins** -- a machine restored from the *wire
  form* of a snapshot is structurally indistinguishable from the
  machine that produced it;
* **digest stability under restore** -- the content digest of a
  machine's live state is a pure function of that state: restore the
  same checkpoint twice, digest equal both times;
* **deterministic replay** -- the fixed
  :func:`~repro.cpu.model.conformance_workload` branch stream drives
  two fresh machines to bit-identical state, and the per-commit
  observer stream matches commit for commit.

Plus the registry/selection plumbing and the cross-family restore
rejection (:class:`~repro.cpu.serialize.SnapshotFormatError`) that keeps
one family's checkpoint out of another family's tables.
"""

import dataclasses

import pytest

from repro.cpu import (
    Machine,
    MachineSnapshot,
    PREDICTOR_LAB_MACHINES,
    SnapshotFormatError,
    UnknownPredictorModelError,
    build_model,
    model_ids,
    resolve_model,
)
from repro.cpu.model import conformance_workload
from repro.fuzz.diff import machine_fingerprint
from repro.isa.identity import machine_digest

#: (config, family id) pairs -- one lab machine per registered family.
LAB = [(config, config.predictor_model) for config in PREDICTOR_LAB_MACHINES]
LAB_IDS = [model_id for _, model_id in LAB]


def drive(machine, workload=None, thread=0):
    """Replay a ``conformance_workload``-shaped stream into ``machine``."""
    for kind, pc, target, taken in (workload or conformance_workload()):
        if kind == "conditional":
            machine.observe_conditional(pc, target, taken, thread=thread)
        else:
            machine.record_taken_branch(pc, target, thread=thread)


def perturb(machine):
    """A short, family-agnostic extra stream (post-checkpoint noise)."""
    for step in range(25):
        pc = 0x50_0000 + 12 * step
        machine.observe_conditional(pc, pc + 64, step % 3 == 0)
        if step % 4 == 0:
            machine.record_taken_branch(pc + 4, pc + 0x100)
    machine.cache.access(0x60_0000)
    machine.set_ibrs(True)


class TestRegistry:
    def test_all_families_registered(self):
        assert set(model_ids()) >= {"intel-cbp", "m1-phr",
                                    "gshare-tournament"}

    def test_lab_machines_cover_every_family(self):
        assert sorted(LAB_IDS) == sorted(model_ids())

    def test_unknown_model_is_a_loud_error(self):
        with pytest.raises(UnknownPredictorModelError, match="no-such"):
            resolve_model("no-such-model")
        config = dataclasses.replace(PREDICTOR_LAB_MACHINES[0],
                                     predictor_model="no-such-model")
        with pytest.raises(UnknownPredictorModelError):
            Machine(config)

    @pytest.mark.parametrize("config,model_id", LAB, ids=LAB_IDS)
    def test_config_selects_family(self, config, model_id):
        machine = Machine(config)
        assert machine.model.model_id == model_id
        assert machine.model is not build_model(config)  # per-machine
        description = machine.model.describe()
        assert description["model"] == model_id
        assert description["provenance"]


@pytest.mark.parametrize("config,model_id", LAB, ids=LAB_IDS)
class TestConformanceContract:
    def test_snapshot_restore_round_trip_identity(self, config, model_id):
        machine = Machine(config)
        drive(machine)
        snap = machine.snapshot()
        assert snap.predictor_model == model_id
        before = machine_fingerprint(machine)
        perturb(machine)
        assert machine_fingerprint(machine) != before
        machine.restore(snap)
        assert machine_fingerprint(machine) == before

    def test_serialize_deserialize_twins(self, config, model_id):
        machine = Machine(config)
        drive(machine)
        snap = machine.snapshot()
        wire = snap.to_bytes()
        restored = MachineSnapshot.from_bytes(wire)
        assert restored == snap
        assert restored.predictor_model == model_id
        twin = Machine(config)
        twin.restore(restored)
        assert machine_fingerprint(twin) == machine_fingerprint(machine)

    def test_digest_stable_under_restore(self, config, model_id):
        machine = Machine(config)
        drive(machine)
        snap = machine.snapshot()
        first = machine_digest(machine)
        perturb(machine)
        assert machine_digest(machine) != first
        machine.restore(snap)
        assert machine_digest(machine) == first
        machine.restore(snap)  # restore is idempotent for the digest
        assert machine_digest(machine) == first

    def test_deterministic_replay_of_fixed_stream(self, config, model_id):
        streams = []
        fingerprints = []
        for _ in range(2):
            machine = Machine(config)
            commits = []
            thread = machine.thread()
            machine.branch_observer = (
                lambda pc, kind, taken, t=thread, c=commits:
                c.append((pc, kind.value, taken, t.phr.value)))
            drive(machine)
            machine.branch_observer = None
            streams.append(tuple(commits))
            fingerprints.append(machine_fingerprint(machine))
        assert streams[0] == streams[1]
        assert fingerprints[0] == fingerprints[1]
        assert streams[0]  # the workload actually committed branches

    def test_state_epoch_moves_with_commits(self, config, model_id):
        machine = Machine(config)
        epoch = machine.state_epoch
        assert epoch is not None
        machine.observe_conditional(0x40_0000, 0x40_0040, True)
        assert machine.state_epoch != epoch

    def test_histories_are_per_thread(self, config, model_id):
        machine = Machine(config)
        drive(machine, thread=0)
        assert machine.phr(0).value != machine.phr(1).value
        assert machine.phr(0) is not machine.phr(1)


class TestCrossModelRestore:
    @pytest.mark.parametrize("victim,intruder", [
        ("intel-cbp", "gshare-tournament"),
        ("intel-cbp", "m1-phr"),
        ("m1-phr", "gshare-tournament"),
    ])
    def test_cross_family_snapshot_rejected(self, victim, intruder):
        by_id = {model_id: config for config, model_id in LAB}
        source = Machine(by_id[intruder])
        drive(source)
        snap = source.snapshot()
        target = Machine(by_id[victim])
        before = machine_fingerprint(target)
        with pytest.raises(SnapshotFormatError, match=intruder):
            target.restore(snap)
        # The rejection must fire before any state is touched.
        assert machine_fingerprint(target) == before

    def test_wire_form_carries_the_family(self):
        source = Machine(PREDICTOR_LAB_MACHINES[0])
        drive(source)
        data = source.snapshot().to_bytes()
        target = Machine(
            {m: c for c, m in LAB}["gshare-tournament"])
        with pytest.raises(SnapshotFormatError, match="intel-cbp"):
            target.restore(MachineSnapshot.from_bytes(data))
