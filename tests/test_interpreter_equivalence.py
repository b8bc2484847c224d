"""Equivalence tests for the predecoded interpreter (DESIGN.md decision 5).

The predecoded fast paths -- ``Interpreter.run`` / ``run_transient`` and
the table-based AES victim data path -- each keep their definitional
twin in :mod:`repro.fuzz.twins` (``ReferenceInterpreter`` behind
``ReferenceMachine``, and ``ReferenceAesVictim``).  The property tests
here pin each
pair bit-identical over randomly generated programs, comparing the full
architectural outcome: registers, flags, call stack, load latencies,
memory, branch trace, perf-counter deltas (including transient-executed
counts), PHR value, and exception behaviour.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aes.victim import AesVictim
from repro.cpu import Machine, RAPTOR_LAKE
from repro.fuzz.diff import ENGINES
from repro.fuzz.twins import ReferenceAesVictim, ReferenceInterpreter
from repro.isa import ProgramBuilder
from repro.isa.instructions import (
    CONDITION_EVALUATORS,
    WORD_MASK,
    Call,
    Condition,
    Flags,
)
from repro.isa.interpreter import (
    BranchKind,
    CpuState,
    ExecutionLimitExceeded,
    Interpreter,
)
from repro.isa.memory import Memory
from repro.isa.program import ProgramError

DATA_BASE = 0x0050_0000

register_strategy = st.sampled_from(["ra", "rb", "rc"])
imm_strategy = st.integers(min_value=0, max_value=0xFFFF)
slot_strategy = st.integers(min_value=0, max_value=15)

op_strategy = st.one_of(
    st.tuples(st.just("mov_imm"), register_strategy, imm_strategy),
    st.tuples(st.just("add"), register_strategy, imm_strategy),
    st.tuples(st.just("sub_flags"), register_strategy, imm_strategy),
    st.tuples(st.just("mov"), register_strategy, register_strategy),
    st.tuples(st.just("xor"), register_strategy, register_strategy),
    st.tuples(st.just("load"), register_strategy, slot_strategy),
    st.tuples(st.just("store"), register_strategy, slot_strategy),
    st.tuples(st.just("diamond"),
              st.sampled_from(["jeq", "jne", "jlt", "jge", "jgt", "jbe"]),
              register_strategy, imm_strategy),
    st.tuples(st.just("loop"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("call")),
    st.tuples(st.just("pyop")),
)

program_strategy = st.lists(op_strategy, min_size=1, max_size=25)


def _scratch_pyop(reads, memory):
    """A PyOp with data-dependent memory traffic (runs transiently too)."""
    value = memory.read(DATA_BASE, 8)
    memory.write(DATA_BASE + 8, 8,
                 (value * 3 + reads.get("ra", 0) + 1) & WORD_MASK)
    return {}


def build_random_program(ops, base=0x470000):
    """Compile a drawn op list into a terminating program.

    Loop counters use the dedicated ``rl`` register and ``rzero`` stays
    unwritten (it anchors absolute-address loads/stores), so arbitrary
    interleavings still halt.
    """
    b = ProgramBuilder("random_equivalence", base=base)
    for index, (op, *args) in enumerate(ops):
        if op == "mov_imm":
            b.mov_imm(args[0], args[1])
        elif op == "add":
            b.add(args[0], imm=args[1])
        elif op == "sub_flags":
            b.sub(args[0], imm=args[1], set_flags=True)
        elif op == "mov":
            b.mov(args[0], args[1])
        elif op == "xor":
            b.xor(args[0], src=args[1])
        elif op == "load":
            b.load(args[0], "rzero", offset=DATA_BASE + 8 * args[1], width=8)
        elif op == "store":
            b.store(args[0], "rzero", offset=DATA_BASE + 8 * args[1], width=8)
        elif op == "diamond":
            branch, reg, imm = args
            b.cmp(reg, imm=imm)
            getattr(b, branch)(f"then_{index}")
            b.nop(2)
            b.jmp(f"join_{index}")
            b.label(f"then_{index}")
            b.nop(1)
            b.label(f"join_{index}")
        elif op == "loop":
            b.mov_imm("rl", args[0])
            b.label(f"loop_{index}")
            b.sub("rl", imm=1, set_flags=True)
            b.jne(f"loop_{index}")
        elif op == "call":
            b.call("subroutine")
        else:  # pyop
            b.pyop("scratch", _scratch_pyop, reads=("ra",),
                   touches_memory=True)
    b.halt()
    b.label("subroutine")
    b.add("rb", imm=7)
    b.ret()
    return b.build()


def run_on_machine(program, engine, trace="full", initial=b"",
                   max_instructions=200_000):
    machine = ENGINES[engine](RAPTOR_LAKE)
    memory = Memory()
    if initial:
        memory.write_bytes(DATA_BASE, initial)
    state = CpuState()
    result = machine.run(program, state=state, memory=memory,
                         max_instructions=max_instructions, trace=trace)
    return result, state, memory


def assert_machine_runs_identical(fast, reference):
    fast_result, fast_state, fast_memory = fast
    ref_result, ref_state, ref_memory = reference
    assert fast_state.regs == ref_state.regs
    assert fast_state.flags == ref_state.flags
    assert fast_state.call_stack == ref_state.call_stack
    assert fast_state.reg_latency == ref_state.reg_latency
    assert fast_state.flags_latency == ref_state.flags_latency
    assert fast_memory.snapshot() == ref_memory.snapshot()
    assert fast_result.execution.trace == ref_result.execution.trace
    assert fast_result.execution.instructions == \
        ref_result.execution.instructions
    assert fast_result.execution.halted == ref_result.execution.halted
    # The perf delta covers hook-call parity end to end: branch counts,
    # mispredictions, speculation windows, and -- critically -- the
    # transient instruction counts of the two wrong-path twins.
    assert fast_result.perf == ref_result.perf
    assert fast_result.phr_value == ref_result.phr_value


class TestPredecodedEngineEquivalence:
    @given(program_strategy, st.binary(min_size=0, max_size=128))
    @settings(max_examples=60, deadline=None)
    def test_random_programs_bit_identical(self, ops, initial):
        program = build_random_program(ops)
        fast = run_on_machine(program, "fast", initial=initial)
        reference = run_on_machine(program, "reference", initial=initial)
        assert_machine_runs_identical(fast, reference)

    def test_aes_victim_end_to_end(self):
        victim = AesVictim(bytes(range(16)))
        results = {}
        for engine in ("fast", "reference"):
            machine = ENGINES[engine](RAPTOR_LAKE)
            memory = Memory()
            victim.provision(memory, bytes(range(16, 32)))
            result = machine.run(victim.program, memory=memory)
            results[engine] = (result, result.execution.state, memory)
        assert_machine_runs_identical(results["fast"], results["reference"])

    def test_data_path_twins_produce_identical_runs(self):
        """The fast and reference AES PyOp data paths must be externally
        indistinguishable: same ciphertext, same trace, same counters."""
        key, plaintext = bytes(range(16)), bytes(range(16, 32))
        outcomes = {}
        for data_path, victim_class in (("fast", AesVictim),
                                        ("reference", ReferenceAesVictim)):
            victim = victim_class(key)
            machine = Machine(RAPTOR_LAKE)
            memory = Memory()
            victim.provision(memory, plaintext)
            result = machine.run(victim.program, memory=memory)
            outcomes[data_path] = (victim.read_ciphertext(memory),
                                   result.execution.trace, result.perf)
        assert outcomes["fast"] == outcomes["reference"]


class TestExceptionParity:
    def test_unmapped_pc_message(self):
        b = ProgramBuilder("unmapped", base=0x400000)
        b.mov_imm("rj", 0x123456)
        b.jmp_reg("rj")
        b.halt()
        program = b.build()
        messages = {}
        for engine in ("fast", "reference"):
            with pytest.raises(ProgramError) as excinfo:
                run_on_machine(program, engine)
            messages[engine] = str(excinfo.value)
        assert messages["fast"] == messages["reference"]
        assert "0x123456" in messages["fast"]

    def test_instruction_budget(self):
        b = ProgramBuilder("spin", base=0x400000)
        b.label("spin")
        b.jmp("spin")
        program = b.build()
        for engine in ("fast", "reference"):
            with pytest.raises(ExecutionLimitExceeded):
                run_on_machine(program, engine, max_instructions=50)

    def test_pyop_missing_write(self):
        def bad_pyop(reads):
            return {}

        b = ProgramBuilder("badpyop", base=0x400000)
        b.pyop("bad", bad_pyop, writes=("ra",))
        b.halt()
        program = b.build()
        messages = {}
        for engine in ("fast", "reference"):
            with pytest.raises(ProgramError) as excinfo:
                run_on_machine(program, engine)
            messages[engine] = str(excinfo.value)
        assert messages["fast"] == messages["reference"]


class TestTraceModes:
    def _branchy_program(self):
        b = ProgramBuilder("tracey", base=0x440000)
        b.mov_imm("rc", 3)
        b.label("loop")
        b.call("leaf")
        b.sub("rc", imm=1, set_flags=True)
        b.jne("loop")
        b.halt()
        b.label("leaf")
        b.nop()
        b.ret()
        return b.build()

    def test_modes_are_projections_of_full(self):
        program = self._branchy_program()
        runs = {}
        for mode in ("full", "branches", "none"):
            result, __, __ = run_on_machine(program, "fast", trace=mode)
            runs[mode] = result
        full = runs["full"].execution.trace
        assert runs["branches"].execution.trace == [
            r for r in full if r.kind is BranchKind.CONDITIONAL]
        assert runs["none"].execution.trace == []
        assert {BranchKind.CALL, BranchKind.RET,
                BranchKind.CONDITIONAL} <= {r.kind for r in full}

    def test_modes_never_change_microarchitectural_outcome(self):
        program = self._branchy_program()
        reference, __, __ = run_on_machine(program, "fast", trace="full")
        for mode in ("branches", "none"):
            result, state, __ = run_on_machine(program, "fast", trace=mode)
            assert result.perf == reference.perf
            assert result.phr_value == reference.phr_value
            assert result.execution.instructions == \
                reference.execution.instructions
            assert state.regs == reference.execution.state.regs

    def test_unknown_trace_mode_rejected(self):
        program = self._branchy_program()
        interpreter = Interpreter(program)
        with pytest.raises(ValueError):
            interpreter.run(trace="sometimes")


class TestConditionEvaluators:
    def test_exhaustive_against_satisfies(self):
        """Every condition x every flag combination: the compile-time
        evaluator table is the fast twin of ``Flags.satisfies``."""
        for condition in Condition:
            evaluator = CONDITION_EVALUATORS[condition]
            for zero in (False, True):
                for sign in (False, True):
                    for carry in (False, True):
                        flags = Flags(zero=zero, sign=sign, carry=carry)
                        assert evaluator(flags) == flags.satisfies(condition)

    def test_table_is_total(self):
        assert set(CONDITION_EVALUATORS) == set(Condition)


class TestCachedTraceViews:
    def test_repeated_access_returns_same_object(self):
        program = build_random_program([("loop", 3), ("call",)])
        result, __, __ = run_on_machine(program, "fast")
        execution = result.execution
        assert execution.taken_branches is execution.taken_branches
        assert execution.conditional_records is execution.conditional_records
        assert [r for r in execution.trace if r.taken] == \
            execution.taken_branches


class TestVariableSizeCall:
    def test_ras_predicts_return_of_wide_call(self):
        """A Call with a non-default encoding size pushes its *real*
        return address; a hardcoded ``pc + 4`` would mispredict the
        return (regression test for the RAS next_pc threading)."""
        b = ProgramBuilder("widecall", base=0x400000)
        b.mov_imm("ra", 5)
        b.raw(Call("leaf", size=8))
        b.add("ra", imm=1)
        b.halt()
        b.label("leaf")
        b.nop()
        b.ret()
        program = b.build()
        for engine in ("fast", "reference"):
            result, state, __ = run_on_machine(program, engine)
            assert state.regs["ra"] == 6
            assert result.perf.returns == 1
            assert result.perf.indirect_mispredictions == 0
            assert result.perf.ras_underflows == 0


class TestTransientEdgeCases:
    def _interpreters(self, program):
        return (Interpreter(program).run_transient,
                ReferenceInterpreter(program).run_transient)

    def test_empty_stack_ret_stops_both_twins(self):
        b = ProgramBuilder("bare_ret", base=0x400000)
        b.label("target")
        b.ret()
        b.halt()
        program = b.build()
        for runner in self._interpreters(program):
            state = CpuState()
            executed = runner(program.address_of("target"), state,
                              Memory(), 16)
            assert executed == 1
            assert state.call_stack == []

    def test_wrong_path_off_mapped_code_stops(self):
        b = ProgramBuilder("offmap", base=0x400000)
        b.label("target")
        b.jmp_reg("rj")          # rj = 0 -> unmapped
        b.halt()
        program = b.build()
        for runner in self._interpreters(program):
            executed = runner(program.address_of("target"), CpuState(),
                              Memory(), 16)
            assert executed == 1

    def test_budget_exhaustion_mid_loop(self):
        b = ProgramBuilder("spin", base=0x400000)
        b.label("spin")
        b.add("ra", imm=1)
        b.jmp("spin")
        b.halt()
        program = b.build()
        for runner in self._interpreters(program):
            assert runner(program.address_of("spin"), CpuState(),
                          Memory(), 7) == 7

    def test_no_architectural_leaks(self):
        """Transient stores, register writes, pyop effects and call-stack
        pushes must all vanish: the squash leaves no trace."""
        b = ProgramBuilder("leaky", base=0x400000)
        b.label("target")
        b.mov_imm("ra", 0xDEAD)
        b.store("ra", "rzero", offset=DATA_BASE, width=8)
        b.pyop("scratch", _scratch_pyop, reads=("ra",), touches_memory=True)
        b.call("leaf")
        b.halt()
        b.label("leaf")
        b.mov_imm("rb", 0xBEEF)
        b.ret()
        program = b.build()
        for runner in self._interpreters(program):
            state = CpuState()
            state.regs["ra"] = 1
            memory = Memory()
            memory.write(DATA_BASE, 8, 42)
            before = memory.snapshot()
            executed = runner(program.address_of("target"), state,
                              memory, 32)
            assert executed > 3
            assert state.regs == {"ra": 1}
            assert state.call_stack == []
            assert memory.snapshot() == before
