"""The differential harness: run one program through every twin pair.

Arms per program (all on fresh machines of the program's preset):

``reference``
    :class:`~repro.fuzz.twins.ReferenceMachine` -- the isinstance-dispatch
    interpreter twin, full trace.  This is the baseline digest.
``fast``
    The production :class:`~repro.cpu.machine.Machine`, ``trace='full'``
    -- the predecoded threaded-code twin.  Compared bit-for-bit against
    ``reference``: registers, flags, call stack, memory, dynamic branch
    trace, perf counters, PHR value,
    every predictor structure, and the per-commit branch-resolution
    stream captured through :attr:`Machine.branch_observer`.
``fast/branches`` and ``fast/none``
    The reduced trace modes.  Everything except the materialised trace
    must match the ``fast`` arm exactly; ``branches`` must additionally
    equal the conditional subsequence of the full trace, ``none`` must
    be empty.
``snapshot``
    Train a machine with one run, checkpoint, run again (digest A),
    restore, run again (digest B).  A and B must be bit-identical --
    the snapshot/restore/replay contract the trial harness rests on.
``batch-twin``
    The vectorized :class:`~repro.batch.BatchMachine` against scalar
    non-speculative runs: ``run_batch`` over two replicas must
    reproduce each scalar ``Machine.run(speculate=False)`` exactly --
    trace, perf delta, PHR, memory, registers, and the full
    ``extract(i)`` machine snapshot.  Skipped when numpy is missing,
    when the preset falls outside :func:`repro.batch.supports_config`,
    or when a ``machine_mutator`` is installed (the mutator perturbs
    scalar machines only, so the comparison would diverge by design).

The invariant oracle (:mod:`repro.fuzz.oracle`) rides along inside every
arm, raising independently of any twin comparison.

A ``machine_mutator`` -- applied to every machine of the *fast* arms but
never to the reference arm -- exists for the mutation-smoke self-test:
installing a deliberate predictor perturbation there must make the
harness report a divergence, proving the fuzzer is not vacuously green.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.aes.victim import AesVictim
from repro.cpu.config import RAPTOR_LAKE
from repro.cpu.machine import Machine, MachineSnapshot
from repro.cpu.serialize import SnapshotFormatError
from repro.fuzz.generator import FuzzProgram
from repro.fuzz.oracle import InvariantOracle, InvariantViolation
from repro.fuzz.twins import ReferenceAesVictim, ReferenceMachine
from repro.isa.interpreter import CpuState
from repro.isa.memory import Memory
from repro.isa.trace import TraceCache
from repro.utils.rng import DeterministicRng

#: Default stride (in commits) of the periodic structural-invariant walk.
DEFAULT_ORACLE_STRIDE = 32

#: A mutator receives the freshly built fast-arm machine before the run.
MachineMutator = Callable[[Machine], None]

#: The machine class behind each :func:`run_arm` engine name.
ENGINES = {"fast": Machine, "reference": ReferenceMachine}


@dataclass(frozen=True)
class Divergence:
    """One mismatch between two arms (or an oracle violation)."""

    arm: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.arm}] {self.kind}: {self.detail}"


class CheckResult(list):
    """The divergences a check found, plus how many twin comparisons ran.

    A plain list of :class:`Divergence` (so ``result == []`` still reads
    "clean") whose :attr:`comparisons` counts every pair of arms that was
    actually compared.  ``+=`` merges both.  An arm that is skipped --
    no numpy, an unsupported preset, an installed mutator -- adds
    nothing, so the total shows when a twin arm stops running.
    """

    comparisons = 0

    def __iadd__(self, other):
        self.extend(other)
        self.comparisons += getattr(other, "comparisons", 0)
        return self


def _one_comparison(divergences=()) -> CheckResult:
    """The result of a single twin comparison."""
    result = CheckResult(divergences)
    result.comparisons = 1
    return result


@dataclass
class ArmDigest:
    """Everything observable from one arm's run."""

    regs: dict
    flags: tuple
    call_stack: Tuple[int, ...]
    memory: dict
    trace: tuple
    instructions: int
    halted: bool
    perf: object
    phr_value: int
    fingerprint: tuple
    commits: Tuple[tuple, ...]
    oracle_violation: Optional[str] = None


#: Component names of a :func:`machine_fingerprint` tuple, in order
#: (used to label which component diverged).
FINGERPRINT_NAMES = ("model", "cbp", "btb", "ibp", "cache", "perf",
                     "threads", "ibrs")


def machine_fingerprint(machine: Machine) -> tuple:
    """A deep structural digest of all snapshot-covered machine state.

    Family-generic: the direction predictor contributes through its
    ``snapshot()`` (sparse tables for every built-in family) and the
    predictor-family id leads the tuple, so machines of different
    families can never fingerprint equal.
    """
    perf = machine.perf.snapshot()
    perf_digest = tuple(
        sorted((name, tuple(sorted(value.items()))
                if isinstance(value, dict) else value)
               for name, value in vars(perf).items())
    )
    return (
        machine.model.model_id,
        machine.cbp.snapshot(),
        machine.btb.snapshot(),
        machine.ibp.snapshot(),
        machine.cache.snapshot(),
        perf_digest,
        tuple((context.phr.value, context.ras.snapshot(), context.domain)
              for context in machine.threads),
        machine.ibrs_enabled,
    )


def _digest(result, memory: Memory, machine: Machine, commits=(),
            trace: Optional[tuple] = None) -> ArmDigest:
    """Everything observable from a finished run of ``machine``."""
    state = result.execution.state
    flags = state.flags
    return ArmDigest(
        regs=dict(state.regs),
        flags=(flags.zero, flags.sign, flags.carry),
        call_stack=tuple(state.call_stack),
        memory=memory.snapshot(),
        trace=tuple(result.execution.trace) if trace is None else trace,
        instructions=result.execution.instructions,
        halted=result.execution.halted,
        perf=result.perf,
        phr_value=result.phr_value,
        fingerprint=machine_fingerprint(machine),
        commits=tuple(commits),
    )


def _provision_memory(fuzz_program: FuzzProgram) -> Memory:
    memory = Memory()
    for address, value in fuzz_program.initial_memory:
        memory.write(address, 1, value)
    return memory


def run_arm(
    fuzz_program: FuzzProgram,
    engine: str,
    trace: str = "full",
    machine_mutator: Optional[MachineMutator] = None,
    oracle_stride: int = DEFAULT_ORACLE_STRIDE,
    machine: Optional[Machine] = None,
) -> ArmDigest:
    """Run one arm on a fresh (or supplied) machine and digest everything.

    ``engine`` names the class of a freshly built machine (see
    :data:`ENGINES`); a supplied ``machine`` runs as it is.
    """
    if machine is None:
        machine = ENGINES[engine](fuzz_program.machine_config)
        if machine_mutator is not None:
            machine_mutator(machine)
    oracle = InvariantOracle(machine, stride=oracle_stride)
    commits: List[tuple] = []
    thread = machine.threads[0]
    perf = machine.perf

    def observer(pc: int, kind, taken: bool) -> None:
        commits.append((pc, kind.value, taken, thread.phr.value,
                        perf.conditional_mispredictions))
        oracle.after_commit(pc)

    machine.branch_observer = observer
    state = CpuState()
    memory = _provision_memory(fuzz_program)
    violation: Optional[str] = None
    try:
        result = machine.run(
            fuzz_program.program,
            state=state,
            memory=memory,
            max_instructions=fuzz_program.max_instructions,
            trace=trace,
        )
        oracle.final_check()
    except InvariantViolation as exc:
        violation = str(exc)
        result = None
    finally:
        machine.branch_observer = None

    if result is None:
        return ArmDigest(
            regs={}, flags=(), call_stack=(), memory={}, trace=(),
            instructions=0, halted=False, perf=machine.perf.snapshot(),
            phr_value=thread.phr.value,
            fingerprint=machine_fingerprint(machine),
            commits=tuple(commits), oracle_violation=violation,
        )
    return _digest(result, memory, machine, commits)


def _first_difference(label: str, a: tuple, b: tuple) -> str:
    """Locate the first differing element of two sequences."""
    for position, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return (f"{label}[{position}]: {left!r} != {right!r} "
                    f"(lengths {len(a)}/{len(b)})")
    return f"{label} lengths differ: {len(a)} != {len(b)}"


def _compare(arm: str, baseline: ArmDigest, candidate: ArmDigest,
             compare_trace: bool = True) -> List[Divergence]:
    """Field-by-field digest comparison with first-mismatch reporting."""
    out = _one_comparison()

    def check(kind: str, left, right, sequence: bool = False) -> None:
        if left != right:
            if sequence:
                out.append(Divergence(arm, kind,
                                      _first_difference(kind, left, right)))
            else:
                out.append(Divergence(arm, kind, f"{left!r} != {right!r}"))

    for digest in (baseline, candidate):
        if digest.oracle_violation:
            out.append(Divergence(arm, "invariant", digest.oracle_violation))
    if out:
        return out

    check("registers", baseline.regs, candidate.regs)
    check("flags", baseline.flags, candidate.flags)
    check("call-stack", baseline.call_stack, candidate.call_stack)
    check("memory", baseline.memory, candidate.memory)
    check("instructions", baseline.instructions, candidate.instructions)
    check("halted", baseline.halted, candidate.halted)
    check("perf", baseline.perf, candidate.perf)
    check("phr", baseline.phr_value, candidate.phr_value)
    check("commit-stream", baseline.commits, candidate.commits,
          sequence=True)
    if compare_trace:
        check("trace", baseline.trace, candidate.trace, sequence=True)
    if baseline.fingerprint != candidate.fingerprint:
        for name, left, right in zip(FINGERPRINT_NAMES,
                                     baseline.fingerprint,
                                     candidate.fingerprint):
            if left != right:
                out.append(Divergence(arm, f"machine.{name}",
                                      f"{left!r} != {right!r}"))
    return out


def check_program(
    fuzz_program: FuzzProgram,
    machine_mutator: Optional[MachineMutator] = None,
    oracle_stride: int = DEFAULT_ORACLE_STRIDE,
) -> List[Divergence]:
    """Run every arm for one program; return all divergences found."""
    divergences, fast = _family_generic_arms(fuzz_program, machine_mutator,
                                             oracle_stride)
    for mode in ("branches", "none"):
        arm = run_arm(fuzz_program, engine="fast", trace=mode,
                      machine_mutator=machine_mutator,
                      oracle_stride=oracle_stride)
        name = f"trace-{mode}"
        divergences += _compare(name, fast, arm, compare_trace=False)
        if arm.oracle_violation is None:
            if mode == "branches":
                conditionals = tuple(r for r in fast.trace
                                     if r.kind.value == "conditional")
                if arm.trace != conditionals:
                    divergences.append(Divergence(
                        name, "trace",
                        _first_difference("trace", conditionals, arm.trace)))
            elif arm.trace:
                divergences.append(Divergence(
                    name, "trace",
                    f"trace='none' materialised {len(arm.trace)} records"))

    divergences += _check_prefix_replay(fuzz_program, fast, machine_mutator,
                                        oracle_stride)
    return divergences


def _family_generic_arms(
    fuzz_program: FuzzProgram,
    machine_mutator: Optional[MachineMutator],
    oracle_stride: int,
    arm_prefix: str = "",
) -> Tuple[CheckResult, ArmDigest]:
    """Reference-vs-fast engines, snapshot replay, snapshot wire format
    and the batch arms; returns their divergences and the fast arm."""
    reference = run_arm(fuzz_program, engine="reference",
                        oracle_stride=oracle_stride)
    fast = run_arm(fuzz_program, engine="fast", trace="full",
                   machine_mutator=machine_mutator,
                   oracle_stride=oracle_stride)
    divergences = _compare(f"{arm_prefix}fast-vs-reference", reference, fast)
    divergences += _check_snapshot_replay(
        fuzz_program, machine_mutator, oracle_stride, arm_prefix=arm_prefix)
    divergences += _check_snapshot_serialization(
        fuzz_program, machine_mutator, arm_prefix=arm_prefix)
    divergences += _check_batch_twin(fuzz_program, machine_mutator,
                                     arm_prefix=arm_prefix)
    divergences += _check_cached_trace(fuzz_program, machine_mutator,
                                       arm_prefix=arm_prefix)
    return divergences, fast


def check_program_backends(
    fuzz_program: FuzzProgram,
    backends: Optional[Tuple[str, ...]] = None,
    machine_mutator: Optional[MachineMutator] = None,
    oracle_stride: int = DEFAULT_ORACLE_STRIDE,
) -> List[Divergence]:
    """Run the core twin arms once per non-default predictor family.

    The full :func:`check_program` battery runs on the program's preset
    (the ``intel-cbp`` family).  This pass rebuilds the same program
    with each requested family
    (:meth:`~repro.fuzz.generator.FuzzProgram.with_predictor_model`) and
    repeats the arms that are family-generic: reference-vs-fast engine
    equivalence, snapshot/restore replay, snapshot wire-format
    round-trip, and the vectorized batch-twin / cached-trace arms
    (every registered family has a batch backend, so the bit-identity
    contract is fuzzed per family) -- each with the invariant oracle
    riding along.  Arm labels are prefixed ``<model-id>:`` so a corpus
    reproducer names the family it failed under.  ``backends=None``
    runs every registered family except the program's own.
    """
    from repro.cpu.model import model_ids

    if backends is None:
        backends = tuple(model_ids())
    own = fuzz_program.machine_config.predictor_model
    divergences = CheckResult()
    for model_id in backends:
        if model_id == own:
            continue
        divergences += _family_generic_arms(
            fuzz_program.with_predictor_model(model_id), machine_mutator,
            oracle_stride, arm_prefix=f"{model_id}:")[0]
    return divergences


def _scalar_twins(fuzz_program: FuzzProgram, n: int) -> List[tuple]:
    """``n`` fresh scalar ``speculate=False`` runs of the program, each
    as ``(result, memory, final machine snapshot)``."""
    twins = []
    for _ in range(n):
        machine = Machine(fuzz_program.machine_config)
        memory = _provision_memory(fuzz_program)
        result = machine.run(
            fuzz_program.program, memory=memory,
            max_instructions=fuzz_program.max_instructions,
            speculate=False, trace="full")
        twins.append((result, memory, machine.snapshot()))
    return twins


def _compare_replica(arm: str, got, memory: Memory, extracted,
                     scalar: tuple) -> CheckResult:
    """One batch replica (its result, memory and extracted snapshot)
    against its scalar twin, observable by observable."""
    scalar_result, scalar_memory, scalar_snap = scalar
    out = _one_comparison()

    def check(kind: str, left, right) -> None:
        if left != right:
            out.append(Divergence(arm, kind, f"{left!r} != {right!r}"))

    check("trace", tuple(got.trace), tuple(scalar_result.trace))
    check("perf", got.perf, scalar_result.perf)
    check("phr", got.phr_value, scalar_result.phr_value)
    check("instructions", got.execution.instructions,
          scalar_result.execution.instructions)
    check("registers", dict(got.state.regs), dict(scalar_result.state.regs))
    check("memory", memory.snapshot(), scalar_memory.snapshot())
    if extracted != scalar_snap:
        out.append(Divergence(arm, "snapshot",
                              "extracted snapshot differs from scalar twin"))
    return out


def _batch_engine(fuzz_program: FuzzProgram,
                  machine_mutator: Optional[MachineMutator]):
    """``BatchMachine`` when the batch arms apply to this program, else
    ``None``: mutators perturb scalar machines only, numpy is optional,
    and not every preset has a batch backend."""
    if machine_mutator is not None:
        return None
    try:
        from repro.batch import BatchMachine, supports_config
    except ImportError:
        return None
    if not supports_config(fuzz_program.machine_config):
        return None
    return BatchMachine


def _check_batch_twin(
    fuzz_program: FuzzProgram,
    machine_mutator: Optional[MachineMutator],
    arm_prefix: str = "",
) -> List[Divergence]:
    """The batch engine against scalar non-speculative twins.

    Two replicas run the same program through ``run_batch`` while two
    fresh scalar machines run it with ``speculate=False``; every
    observable -- trace, perf delta, PHR, architectural memory and
    registers, and the extracted full machine snapshot -- must match
    bit for bit.  This is the fuzz half of the batch engine's
    bit-identity contract (the property half lives in
    ``tests/test_batch_equivalence.py``).
    """
    BatchMachine = _batch_engine(fuzz_program, machine_mutator)
    if BatchMachine is None:
        return []
    n = 2
    scalars = _scalar_twins(fuzz_program, n)
    batch = BatchMachine(n, fuzz_program.machine_config)
    memories = [_provision_memory(fuzz_program) for _ in range(n)]
    results = batch.run_batch(
        fuzz_program.program, memories,
        max_instructions=fuzz_program.max_instructions, trace="full")
    divergences = CheckResult()
    for i in range(n):
        divergences += _compare_replica(
            f"{arm_prefix}batch-twin[{i}]", results[i], memories[i],
            batch.extract(i), scalars[i])
    return divergences


def _check_cached_trace(
    fuzz_program: FuzzProgram,
    machine_mutator: Optional[MachineMutator],
    arm_prefix: str = "",
) -> List[Divergence]:
    """Trace-once/replay-many against scalar twins, bit for bit.

    The same batch run twice through one
    :class:`~repro.isa.trace.TraceCache`: the cold pass captures, and
    the warm pass (every replica a cache hit, phase 1 fully skipped)
    must match fresh scalar ``speculate=False`` twins just as exactly
    (``cached-trace-cold[i]`` / ``cached-trace-warm[i]``); the cache must
    report zero divergences.
    """
    BatchMachine = _batch_engine(fuzz_program, machine_mutator)
    if BatchMachine is None:
        return []
    config = fuzz_program.machine_config
    n = 2
    scalars = _scalar_twins(fuzz_program, n)
    divergences = CheckResult()
    cache = TraceCache()
    for label in ("cold", "warm"):
        batch = BatchMachine(n, config)
        memories = [_provision_memory(fuzz_program) for _ in range(n)]
        try:
            results = batch.run_batch(
                fuzz_program.program, memories,
                max_instructions=fuzz_program.max_instructions,
                trace="full", trace_cache=cache)
        except Exception as exc:  # noqa: BLE001 -- arm must not crash fuzz
            divergences.append(Divergence(
                f"{arm_prefix}cached-trace-{label}", "crash",
                f"{type(exc).__name__}: {exc}"))
            return divergences
        for i in range(n):
            divergences += _compare_replica(
                f"{arm_prefix}cached-trace-{label}[{i}]", results[i],
                memories[i], batch.extract(i), scalars[i])
    if cache.stats.divergences:
        divergences.append(Divergence(
            f"{arm_prefix}cached-trace", "cache",
            f"trace cache reported {cache.stats.divergences} "
            f"divergent entries"))
    return divergences


def _check_snapshot_replay(
    fuzz_program: FuzzProgram,
    machine_mutator: Optional[MachineMutator],
    oracle_stride: int,
    arm_prefix: str = "",
) -> List[Divergence]:
    """Train, checkpoint, replay twice around a restore; arms must match."""
    machine = Machine(fuzz_program.machine_config)
    if machine_mutator is not None:
        machine_mutator(machine)
    machine.run(fuzz_program.program,
                memory=_provision_memory(fuzz_program),
                max_instructions=fuzz_program.max_instructions,
                trace="none")
    snap = machine.snapshot()
    first = run_arm(fuzz_program, engine="fast", trace="none",
                    oracle_stride=oracle_stride, machine=machine)
    machine.restore(snap)
    second = run_arm(fuzz_program, engine="fast", trace="none",
                     oracle_stride=oracle_stride, machine=machine)
    return _compare(f"{arm_prefix}snapshot-replay", first, second,
                    compare_trace=False)


def _check_snapshot_serialization(
    fuzz_program: FuzzProgram,
    machine_mutator: Optional[MachineMutator],
    arm_prefix: str = "",
) -> List[Divergence]:
    """The versioned snapshot wire format, against fuzz-trained state.

    Train a machine with one full run, serialize its snapshot through
    :meth:`MachineSnapshot.to_bytes`, deserialize, and demand (a) the
    round-tripped snapshot compares equal to the live one, and (b) a
    fresh machine restored from the *deserialized* snapshot is
    structurally bit-identical to the trained machine.  This is the
    disk tier's contract: a checkpoint served from
    :class:`repro.service.store.SnapshotStore`'s spill directory must
    be indistinguishable from the live capture it spilled.
    """
    machine = Machine(fuzz_program.machine_config)
    if machine_mutator is not None:
        machine_mutator(machine)
    machine.run(fuzz_program.program,
                memory=_provision_memory(fuzz_program),
                max_instructions=fuzz_program.max_instructions,
                trace="none")
    snap = machine.snapshot()
    arm = f"{arm_prefix}snapshot-serialization"
    try:
        restored = MachineSnapshot.from_bytes(snap.to_bytes())
    except SnapshotFormatError as exc:
        return _one_comparison([Divergence(arm, "format", str(exc))])
    if restored != snap:
        return _one_comparison([Divergence(
            arm, "round-trip", "deserialized snapshot != live snapshot")])

    twin = Machine(fuzz_program.machine_config)
    twin.restore(restored)
    left = machine_fingerprint(machine)
    right = machine_fingerprint(twin)
    return _one_comparison(
        Divergence(arm, f"machine.{name}", f"{a!r} != {b!r}")
        for name, a, b in zip(FINGERPRINT_NAMES, left, right) if a != b)


def _check_prefix_replay(
    fuzz_program: FuzzProgram,
    straight: ArmDigest,
    machine_mutator: Optional[MachineMutator],
    oracle_stride: int,
) -> List[Divergence]:
    """The :mod:`repro.replay` contract at whole-program granularity.

    Splits the program's dynamic instruction stream in half: run the
    prefix (``on_limit='stop'``), checkpoint machine + CPU state +
    memory, run the suffix to completion, and compare the stitched
    digest -- architectural state, perf counters, committed branch
    stream, full trace -- against the straight one-shot execution
    (``prefix-replay`` arm).  Then restore the checkpoint and run the
    suffix a second time; both suffix runs must be bit-identical
    (``suffix-replay`` arm), which is exactly what the replay engine's
    restore-per-guess batching assumes.
    """
    if straight.oracle_violation is not None:
        return []  # already reported; a split run would just repeat it
    total = straight.instructions
    split = total // 2
    if split == 0 or split >= total:
        return []

    machine = Machine(fuzz_program.machine_config)
    if machine_mutator is not None:
        machine_mutator(machine)
    oracle = InvariantOracle(machine, stride=oracle_stride)
    commits: List[tuple] = []
    thread = machine.threads[0]
    perf = machine.perf

    def observer(pc: int, kind, taken: bool) -> None:
        commits.append((pc, kind.value, taken, thread.phr.value,
                        perf.conditional_mispredictions))
        oracle.after_commit(pc)

    machine.branch_observer = observer
    state = CpuState()
    memory = _provision_memory(fuzz_program)
    before = perf.snapshot()
    try:
        prefix = machine.run(
            fuzz_program.program, state=state, memory=memory,
            max_instructions=split, trace="full", on_limit="stop")
        if prefix.execution.halted or prefix.execution.next_pc is None:
            return [Divergence("prefix-replay", "limit",
                               f"prefix halted within {split} of "
                               f"{total} instructions")]
        # Checkpoint everything the suffix touches.
        snap = machine.snapshot()
        state_copy = state.copy()
        memory_copy = memory.clone()
        prefix_commits = len(commits)

        suffix_budget = fuzz_program.max_instructions - split
        first = machine.run(
            fuzz_program.program, state=state, memory=memory,
            entry=prefix.execution.next_pc,
            max_instructions=suffix_budget, trace="full")
        oracle.final_check()
        stitched = _digest(first, memory, machine, commits, trace=tuple(
            prefix.execution.trace) + tuple(first.execution.trace))
        stitched.instructions = split + first.execution.instructions
        stitched.perf = perf.delta(before)
        divergences = _compare("prefix-replay", straight, stitched)

        first_digest = _digest(first, memory, machine,
                               commits[prefix_commits:])
        machine.restore(snap)
        replay_start = len(commits)
        second = machine.run(
            fuzz_program.program, state=state_copy, memory=memory_copy,
            entry=prefix.execution.next_pc,
            max_instructions=suffix_budget, trace="full")
        oracle.final_check()
        second_digest = _digest(second, memory_copy, machine,
                                commits[replay_start:])
        divergences += _compare("suffix-replay", first_digest, second_digest)
        return divergences
    except InvariantViolation as exc:
        return [Divergence("prefix-replay", "invariant", str(exc))]
    finally:
        machine.branch_observer = None


# ----------------------------------------------------------------------
# the AES data-path twins
# ----------------------------------------------------------------------

def check_aes_data_paths(rng: DeterministicRng) -> List[Divergence]:
    """One random AES block through the fast and reference data paths.

    The control-flow skeleton is identical by construction; the arms must
    agree on the ciphertext *and* on every microarchitectural observable
    (trace, perf counters, predictor state) since the data paths also
    share the memory-traffic contract (PyOp block I/O bypasses the cache
    in both).
    """
    key = rng.bytes(rng.choice((16, 24, 32)))
    plaintext = rng.bytes(16)
    digests = {}
    ciphertexts = {}
    for data_path, victim_class in (("fast", AesVictim),
                                    ("reference", ReferenceAesVictim)):
        victim = victim_class(key)
        machine = Machine(RAPTOR_LAKE)
        oracle = InvariantOracle(machine, stride=DEFAULT_ORACLE_STRIDE)
        machine.branch_observer = oracle
        memory = Memory()
        victim.provision(memory, plaintext)
        try:
            result = machine.run(victim.program, memory=memory)
            oracle.final_check()
        except InvariantViolation as exc:
            return [Divergence(f"aes-{data_path}", "invariant", str(exc))]
        finally:
            machine.branch_observer = None
        ciphertexts[data_path] = victim.read_ciphertext(memory)
        digests[data_path] = _digest(result, memory, machine)
    divergences = _compare("aes-data-path", digests["reference"],
                           digests["fast"])
    if ciphertexts["fast"] != ciphertexts["reference"]:
        divergences.append(Divergence(
            "aes-data-path", "ciphertext",
            f"{ciphertexts['fast'].hex()} != "
            f"{ciphertexts['reference'].hex()}"))
    return divergences
