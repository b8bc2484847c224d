"""Seeded random ISA program generation for the differential fuzzer.

Programs are built from *shapes*: small, self-contained, structured
fragments (branch diamonds, bounded counted loops, call/return nests,
indirect jump tables, load/store bursts over a bounded data window, and
speculation-window scenes whose branch resolution is delayed by a cache
miss).  Every random decision is drawn up front into immutable shape
records, and assembly from a shape list is a pure function -- which is
what makes the delta-debugging shrinker (:mod:`repro.fuzz.shrink`) and
the persisted reproducer corpus (:mod:`repro.fuzz.corpus`) possible: a
failing program is fully described by ``(seed, index, kept shape
positions, profile)`` and can be rebuilt anywhere.

Termination is guaranteed by construction: all control flow is forward
except loop back edges driven by bounded counters and call chains that
are acyclic (a shape's subroutine ``k`` only ever calls ``k + 1``), so
every generated program halts without relying on the interpreter's
instruction budget.

Indirect jumps need absolute target addresses in registers, which are
only known after assembly; ``build_program`` therefore assembles twice.
Instruction sizes do not depend on immediate values, so the second pass
-- with real label addresses patched into the ``MovImm`` feeding each
``JumpIndirect`` -- reproduces the first pass's layout exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.config import RAPTOR_LAKE, SKYLAKE, MachineConfig
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import BinaryOp, Condition
from repro.isa.program import Program
from repro.utils.rng import DeterministicRng

#: Code base of every fuzz program.
FUZZ_CODE_BASE = 0x0040_0000

#: Base and byte span of the bounded data window all loads/stores hit.
DATA_BASE = 0x0060_0000
DATA_SPAN = 0x1000

#: Scratch registers the shapes draw from.
SCRATCH_REGS = ("r0", "r1", "r2", "r3", "r4", "r5")

#: Machine presets a program may target (chosen per program by the rng).
MACHINE_PRESETS: Dict[str, MachineConfig] = {
    "raptor_lake": RAPTOR_LAKE,
    "skylake": SKYLAKE,
}


# ----------------------------------------------------------------------
# shapes (pure data)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """Base class of all program fragments."""


@dataclass(frozen=True)
class AluShape(Shape):
    """Straight-line ALU noise: ``(op, dst, imm)`` triples."""

    ops: Tuple[Tuple[str, str, int], ...]


@dataclass(frozen=True)
class DiamondShape(Shape):
    """One if/else diamond with a deterministic outcome.

    ``value`` is compared against ``cmp_imm`` under ``condition``; the
    arms are nop padding of the given lengths, and the branch may be
    aligned to sharpen / zero low PC bits in its PHR footprint.
    """

    value: int
    cmp_imm: int
    condition: Condition
    align: int
    then_pad: int
    else_pad: int


@dataclass(frozen=True)
class LoopShape(Shape):
    """A bounded counted loop (the back edge is the interesting branch)."""

    iterations: int
    body_load_offset: Optional[int]
    align: int


@dataclass(frozen=True)
class MemShape(Shape):
    """A burst of stores then loads inside the bounded data window.

    Loaded values are folded into an accumulator register so the data
    path stays architecturally visible.
    """

    base_offset: int
    stores: Tuple[Tuple[int, int, int], ...]  # (offset, width, value)
    loads: Tuple[Tuple[int, int], ...]        # (offset, width)


@dataclass(frozen=True)
class SpecShape(Shape):
    """A speculation-window scene.

    A (cold, hence slow) load feeds the compare, so the conditional
    branch resolves late and a misprediction opens a wide transient
    window; each arm performs loads of distinct cache lines, making
    wrong-path execution visible through the simulated data cache.
    """

    base_offset: int
    cmp_imm: int
    taken_arm_lines: Tuple[int, ...]
    fallthrough_arm_lines: Tuple[int, ...]


@dataclass(frozen=True)
class CallChainShape(Shape):
    """An acyclic call chain of the given depth (RAS push/pop stress).

    Depths beyond the RAS capacity (16) exercise the circular-overwrite
    overflow path and the resulting return mispredictions.
    """

    depth: int
    leaf_load_offset: Optional[int]


@dataclass(frozen=True)
class IndirectShape(Shape):
    """An indirect jump through a register into a small target table."""

    nways: int
    selector: int


@dataclass(frozen=True)
class JumpChainShape(Shape):
    """A run of aligned unconditional jumps (low-entropy PHR footprints)."""

    count: int
    align: int


# ----------------------------------------------------------------------
# generator configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs bounding a generated program."""

    min_shapes: int = 4
    max_shapes: int = 12
    max_loop_iterations: int = 6
    max_call_depth: int = 20
    #: Bytes of the data window pre-initialised with random contents.
    preinit_bytes: int = 48
    #: Dynamic instruction ceiling handed to :meth:`Machine.run`; shaped
    #: programs terminate well below it, so hitting it is itself a bug.
    max_instructions: int = 200_000


#: Named generator profiles, addressable from persisted reproducers.
PROFILES: Dict[str, GeneratorConfig] = {
    "default": GeneratorConfig(),
    "smoke": GeneratorConfig(min_shapes=3, max_shapes=7,
                             max_loop_iterations=4, max_call_depth=18,
                             preinit_bytes=32),
}


@dataclass(frozen=True)
class FuzzProgram:
    """One generated program plus everything needed to run and rebuild it.

    ``kept`` lists the positions (into the originally generated shape
    list) that survived shrinking; ``None`` means the full program.
    """

    seed: int
    index: int
    profile: str
    machine_name: str
    shapes: Tuple[Shape, ...]
    program: Program = field(compare=False, repr=False)
    initial_memory: Tuple[Tuple[int, int], ...]
    max_instructions: int
    kept: Optional[Tuple[int, ...]] = None
    #: Predictor-family override (a :mod:`repro.cpu.model` registry id);
    #: ``None`` keeps the preset's family.  The per-backend fuzz arms
    #: (:func:`repro.fuzz.diff.check_program_backends`) rebuild the same
    #: program with this set to run every family over one corpus.
    predictor_model: Optional[str] = None

    @property
    def machine_config(self) -> MachineConfig:
        config = MACHINE_PRESETS[self.machine_name]
        if (self.predictor_model is not None
                and self.predictor_model != config.predictor_model):
            config = replace(config, predictor_model=self.predictor_model)
        return config

    def with_predictor_model(self, model_id: str) -> "FuzzProgram":
        """The same program pinned to predictor family ``model_id``."""
        return replace(self, predictor_model=model_id)


def program_rng(seed: int, index: int) -> DeterministicRng:
    """The decorrelated rng stream of program ``index`` under ``seed``."""
    return DeterministicRng(seed).fork(index)


# ----------------------------------------------------------------------
# shape drawing
# ----------------------------------------------------------------------

_CONDITIONS = tuple(Condition)
_ALU_OPS = ("add", "sub", "xor", "and", "or", "mul")
_ALIGNMENTS = (4, 16, 64, 256)
_WIDTHS = (1, 2, 4, 8)


def _draw_shape(rng: DeterministicRng, config: GeneratorConfig) -> Shape:
    kind = rng.integer(0, 7)
    if kind == 0:
        ops = tuple(
            (rng.choice(_ALU_OPS), rng.choice(SCRATCH_REGS),
             rng.value_bits(16))
            for _ in range(rng.integer(1, 4))
        )
        return AluShape(ops=ops)
    if kind == 1:
        return DiamondShape(
            value=rng.value_bits(8),
            cmp_imm=rng.value_bits(8),
            condition=rng.choice(_CONDITIONS),
            align=rng.choice(_ALIGNMENTS),
            then_pad=rng.integer(1, 3),
            else_pad=rng.integer(1, 3),
        )
    if kind == 2:
        return LoopShape(
            iterations=rng.integer(1, config.max_loop_iterations),
            body_load_offset=(rng.integer(0, DATA_SPAN - 8)
                              if rng.coin() else None),
            align=rng.choice(_ALIGNMENTS),
        )
    if kind == 3:
        stores = tuple(
            (rng.integer(0, DATA_SPAN - 8), rng.choice(_WIDTHS),
             rng.value_bits(32))
            for _ in range(rng.integer(1, 3))
        )
        loads = tuple(
            (rng.integer(0, DATA_SPAN - 8), rng.choice(_WIDTHS))
            for _ in range(rng.integer(1, 3))
        )
        return MemShape(base_offset=rng.integer(0, DATA_SPAN // 2),
                        stores=stores, loads=loads)
    if kind == 4:
        lines = lambda: tuple(  # noqa: E731 -- local shorthand
            64 * rng.integer(0, (DATA_SPAN // 64) - 1)
            for _ in range(rng.integer(1, 3))
        )
        return SpecShape(
            base_offset=rng.integer(0, DATA_SPAN - 8),
            cmp_imm=rng.value_bits(8),
            taken_arm_lines=lines(),
            fallthrough_arm_lines=lines(),
        )
    if kind == 5:
        return CallChainShape(
            depth=rng.integer(1, config.max_call_depth),
            leaf_load_offset=(rng.integer(0, DATA_SPAN - 8)
                              if rng.coin() else None),
        )
    if kind == 6:
        nways = rng.integer(2, 4)
        return IndirectShape(nways=nways, selector=rng.integer(0, nways - 1))
    return JumpChainShape(count=rng.integer(1, 4),
                          align=rng.choice(_ALIGNMENTS))


def generate_shapes(rng: DeterministicRng,
                    config: GeneratorConfig) -> Tuple[Shape, ...]:
    """Draw a full shape list for one program."""
    count = rng.integer(config.min_shapes, config.max_shapes)
    return tuple(_draw_shape(rng, config) for _ in range(count))


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

class _Emitter:
    """Walks a shape list twice: labels resolve in pass two."""

    def __init__(self, resolve: Optional[Dict[str, int]]):
        self.resolve = resolve

    def address_of(self, label: str) -> int:
        if self.resolve is None:
            return 0
        return self.resolve[label]

    def emit(self, shapes: Sequence[Tuple[int, Shape]],
             name: str) -> Program:
        b = ProgramBuilder(name, base=FUZZ_CODE_BASE)
        b.mov_imm("racc", 0)
        deferred: List[Tuple[int, Shape]] = []
        for position, shape in shapes:
            method = getattr(self, "_emit_" + type(shape).__name__)
            if method(b, position, shape):
                deferred.append((position, shape))
        b.halt()
        for position, shape in deferred:
            method = getattr(self, "_defer_" + type(shape).__name__)
            method(b, position, shape)
        return b.build()

    # -- main-line emitters (return True when a deferred section follows)

    def _emit_AluShape(self, b, position, shape) -> bool:
        for op, dst, imm in shape.ops:
            b.raw(BinaryOp(op, dst, imm=imm))
        return False

    def _emit_DiamondShape(self, b, position, shape) -> bool:
        then_label = f"s{position}_then"
        join_label = f"s{position}_join"
        branch_label = f"s{position}_branch"
        b.mov_imm("r0", shape.value)
        b.cmp("r0", imm=shape.cmp_imm)
        # Alignment gaps hold no instructions; hop over them explicitly.
        b.jmp(branch_label)
        b.align(shape.align)
        b.label(branch_label)
        b.branch(shape.condition, then_label)
        b.nop(shape.else_pad)
        b.jmp(join_label)
        b.label(then_label)
        b.nop(shape.then_pad)
        b.label(join_label)
        return False

    def _emit_LoopShape(self, b, position, shape) -> bool:
        loop_label = f"s{position}_loop"
        b.mov_imm("r1", shape.iterations)
        if shape.body_load_offset is not None:
            b.mov_imm("rbase", DATA_BASE)
        b.jmp(loop_label)
        b.align(shape.align)
        b.label(loop_label)
        if shape.body_load_offset is not None:
            b.load("r2", "rbase", offset=shape.body_load_offset, width=8)
            b.xor("racc", src="r2")
        b.add("racc", imm=1)
        b.sub("r1", imm=1, set_flags=True)
        b.jne(loop_label)
        return False

    def _emit_MemShape(self, b, position, shape) -> bool:
        b.mov_imm("rbase", DATA_BASE + shape.base_offset)
        for offset, width, value in shape.stores:
            capped = min(offset, DATA_SPAN - width)
            b.mov_imm("r3", value)
            b.store("r3", "rbase", offset=capped - shape.base_offset,
                    width=width)
        for offset, width in shape.loads:
            capped = min(offset, DATA_SPAN - width)
            b.load("r4", "rbase", offset=capped - shape.base_offset,
                   width=width)
            b.xor("racc", src="r4")
        return False

    def _emit_SpecShape(self, b, position, shape) -> bool:
        taken_label = f"s{position}_spec_taken"
        join_label = f"s{position}_spec_join"
        b.mov_imm("rbase", DATA_BASE)
        b.load("r5", "rbase", offset=shape.base_offset, width=8)
        b.cmp("r5", imm=shape.cmp_imm)
        b.jeq(taken_label)
        for line in shape.fallthrough_arm_lines:
            b.load("r2", "rbase", offset=line, width=8)
            b.xor("racc", src="r2")
        b.jmp(join_label)
        b.label(taken_label)
        for line in shape.taken_arm_lines:
            b.load("r2", "rbase", offset=line, width=8)
            b.add("racc", src="r2")
        b.label(join_label)
        return False

    def _emit_CallChainShape(self, b, position, shape) -> bool:
        b.call(f"s{position}_fn0")
        return True

    def _defer_CallChainShape(self, b, position, shape) -> None:
        for level in range(shape.depth):
            b.label(f"s{position}_fn{level}")
            b.add("racc", imm=level + 1)
            if level + 1 < shape.depth:
                b.call(f"s{position}_fn{level + 1}")
            elif shape.leaf_load_offset is not None:
                b.mov_imm("rbase", DATA_BASE)
                b.load("r2", "rbase", offset=shape.leaf_load_offset, width=8)
                b.xor("racc", src="r2")
            b.ret()

    def _emit_IndirectShape(self, b, position, shape) -> bool:
        join_label = f"s{position}_ind_join"
        target = f"s{position}_ind_t{shape.selector}"
        b.mov_imm("r0", self.address_of(target))
        b.jmp_reg("r0")
        for way in range(shape.nways):
            b.label(f"s{position}_ind_t{way}")
            b.add("racc", imm=way + 1)
            b.jmp(join_label)
        b.label(join_label)
        return False

    def _emit_JumpChainShape(self, b, position, shape) -> bool:
        for hop in range(shape.count):
            label = f"s{position}_hop{hop}"
            b.jmp(label)
            b.align(shape.align)
            b.label(label)
        return False


def build_program(
    shapes: Sequence[Shape],
    *,
    name: str = "fuzz",
    positions: Optional[Sequence[int]] = None,
) -> Program:
    """Assemble ``shapes`` (two passes; see the module docstring).

    ``positions`` supplies each shape's label namespace (its position in
    the originally generated list); defaults to ``0..len-1``.  Passing
    the original positions keeps a shrunk subset's labels -- and hence
    its branch addresses -- aligned with the full program's, so a
    reproducer shrinks without the code layout shifting under it.
    """
    if positions is None:
        positions = range(len(shapes))
    numbered = list(zip(positions, shapes))
    first = _Emitter(resolve=None).emit(numbered, name)
    second = _Emitter(resolve=first.labels).emit(numbered, name)
    if second.labels != first.labels:
        # The builder's layout contract (instruction sizes independent of
        # operand values) was broken; every patched indirect target is
        # now suspect.
        raise AssertionError(
            f"two-pass assembly of {name!r} moved labels: "
            f"{set(first.labels.items()) ^ set(second.labels.items())}"
        )
    return second


def _draw_initial_memory(rng: DeterministicRng,
                         config: GeneratorConfig) -> Tuple[Tuple[int, int], ...]:
    """Random bytes scattered over the data window."""
    return tuple(
        (DATA_BASE + rng.integer(0, DATA_SPAN - 1), rng.value_bits(8))
        for _ in range(config.preinit_bytes)
    )


def generate_program(seed: int, index: int,
                     profile: str = "default") -> FuzzProgram:
    """Generate program ``index`` of the stream seeded by ``seed``."""
    config = PROFILES[profile]
    rng = program_rng(seed, index)
    machine_name = rng.choice(sorted(MACHINE_PRESETS))
    shapes = generate_shapes(rng, config)
    initial_memory = _draw_initial_memory(rng, config)
    program = build_program(shapes, name=f"fuzz_s{seed}_p{index}")
    return FuzzProgram(
        seed=seed,
        index=index,
        profile=profile,
        machine_name=machine_name,
        shapes=shapes,
        program=program,
        initial_memory=initial_memory,
        max_instructions=config.max_instructions,
    )


def rebuild(seed: int, index: int, keep: Optional[Sequence[int]] = None,
            profile: str = "default") -> FuzzProgram:
    """Rebuild a (possibly shrunk) program from its persisted identity.

    ``keep`` lists positions into the generated shape list; ``None``
    keeps everything.  Used by corpus reproducers and the shrinker.
    """
    full = generate_program(seed, index, profile=profile)
    if keep is None:
        return full
    kept = tuple(keep)
    subset = tuple(full.shapes[position] for position in kept)
    program = build_program(subset, name=f"fuzz_s{seed}_p{index}_shrunk",
                            positions=kept)
    return replace(full, shapes=subset, program=program, kept=kept)


def with_shapes(fuzz_program: FuzzProgram, shapes: Sequence[Shape],
                positions: Sequence[int]) -> FuzzProgram:
    """A variant of ``fuzz_program`` running only ``shapes``.

    Unlike :func:`rebuild` the shapes themselves may be *reduced* copies
    (fewer loop iterations, shallower call chains); the shrinker uses
    this for its final within-shape minimisation pass.
    """
    program = build_program(shapes, name=fuzz_program.program.name + "_min",
                            positions=positions)
    return replace(fuzz_program, shapes=tuple(shapes), program=program,
                   kept=tuple(positions))
