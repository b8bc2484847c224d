"""Tests for the Pathfinder backward path search."""

import gc
import weakref

import pytest

from repro.cpu import Machine, RAPTOR_LAKE
from repro.cpu.phr import replay_taken_branches
from repro.isa import ProgramBuilder
from repro.pathfinder import (ControlFlowGraph, PathSearch, cached_cfg,
                              cached_path_search)
from repro.primitives import VictimHandle

from conftest import build_branchy_victim, build_counted_loop


def history_of(program, capacity=None):
    """(taken branches, history doublets) from an architectural run."""
    handle = VictimHandle(Machine(RAPTOR_LAKE), program)
    taken = handle.taken_branches()
    width = len(taken) if capacity is None else capacity
    return taken, replay_taken_branches(width, taken).doublets()


class TestExactMode:
    @pytest.mark.parametrize("iterations", [2, 3, 9, 30])
    def test_recovers_loop_iterations(self, iterations):
        program = build_counted_loop(iterations)
        taken, doublets = history_of(program)
        cfg = ControlFlowGraph(program)
        paths = PathSearch(cfg, mode="exact").search(doublets)
        assert len(paths) == 1
        assert paths[0].taken_branches == taken
        loop = program.address_of("loop")
        assert paths[0].block_visit_counts()[loop] == iterations

    def test_recovers_branch_outcomes(self):
        seed = 0b1100_1010_0111
        program, expected = build_branchy_victim(seed, conditional_count=12)
        taken, doublets = history_of(program)
        cfg = ControlFlowGraph(program)
        paths = PathSearch(cfg, mode="exact").search(doublets)
        assert len(paths) == 1
        diamond_pcs = {
            pc for pc, taken_flag in paths[0].branch_outcomes
        }
        outcomes = [flag for __, flag in paths[0].branch_outcomes]
        assert outcomes == expected
        assert len(diamond_pcs) == 12

    def test_nested_loops(self):
        b = ProgramBuilder(base=0x1000)
        b.mov_imm("router", 3)
        b.label("outer")
        b.mov_imm("rinner", 4)
        b.label("inner")
        b.sub("rinner", imm=1, set_flags=True)
        b.jne("inner")
        b.sub("router", imm=1, set_flags=True)
        b.jne("outer")
        b.ret()
        program = b.build()
        taken, doublets = history_of(program)
        cfg = ControlFlowGraph(program)
        paths = PathSearch(cfg, mode="exact").search(doublets)
        assert len(paths) == 1
        inner = program.address_of("inner")
        assert paths[0].block_visit_counts()[inner] == 12

    def test_call_ret_paths(self):
        b = ProgramBuilder(base=0x1000)
        b.mov_imm("rcx", 2)
        b.label("loop")
        b.call("helper")
        b.sub("rcx", imm=1, set_flags=True)
        b.jne("loop")
        b.ret()
        b.label("helper")
        b.nop()
        b.ret()
        program = b.build()
        taken, doublets = history_of(program)
        cfg = ControlFlowGraph(program)
        paths = PathSearch(cfg, mode="exact").search(doublets)
        assert len(paths) == 1
        assert paths[0].taken_branches == taken

    def test_reaches_entry_flag(self):
        program = build_counted_loop(3)
        __, doublets = history_of(program)
        cfg = ControlFlowGraph(program)
        path = PathSearch(cfg, mode="exact").search(doublets)[0]
        assert path.reaches_entry
        assert path.blocks[0] == cfg.entry

    def test_wrong_history_finds_nothing(self):
        program = build_counted_loop(5)
        __, doublets = history_of(program)
        corrupted = list(doublets)
        corrupted[0] ^= 0b11
        cfg = ControlFlowGraph(program)
        assert PathSearch(cfg, mode="exact").search(corrupted) == []

    def test_empty_history_rejected(self):
        cfg = ControlFlowGraph(build_counted_loop(2))
        with pytest.raises(ValueError):
            PathSearch(cfg).search([])

    def test_invalid_mode_rejected(self):
        cfg = ControlFlowGraph(build_counted_loop(2))
        with pytest.raises(ValueError):
            PathSearch(cfg, mode="fuzzy")


class TestWindowMode:
    def test_recovers_suffix_of_long_run(self):
        """With more taken branches than the window, window mode recovers
        the most recent ``width`` branches."""
        program = build_counted_loop(40)
        taken, __ = history_of(program)
        window = 16
        suffix_doublets = replay_taken_branches(window,
                                                taken[-window:]).doublets()
        cfg = ControlFlowGraph(program)
        paths = PathSearch(cfg, mode="window").search(suffix_doublets)
        assert paths
        assert paths[0].taken_branches == taken[-window:]

    def test_window_mode_does_not_require_entry(self):
        program = build_counted_loop(40)
        taken, __ = history_of(program)
        window = 8
        suffix = replay_taken_branches(window, taken[-window:]).doublets()
        cfg = ControlFlowGraph(program)
        path = PathSearch(cfg, mode="window").search(suffix)[0]
        assert not path.reaches_entry


class TestIndexStaleness:
    def test_add_edge_invalidates_memoized_index(self):
        """The doublet-indexed edge lookup is keyed to ``cfg.version``:
        an edge patched in after a search (the documented indirect-jump
        use case) must be visible to the next search on the SAME
        PathSearch object, not served from the stale index."""
        from repro.cpu.footprint import branch_footprint
        from repro.pathfinder.cfg import Edge, EdgeKind

        landing = 0x2000
        b = ProgramBuilder(base=0x1000)
        b.mov_imm("rt", landing)
        b.jmp_reg("rt")            # indirect: no static CFG edge
        b.at(landing)
        b.label("landing")
        b.ret()
        program = b.build()
        taken, doublets = history_of(program)
        assert taken == [(0x1004, landing)]

        cfg = ControlFlowGraph(program)
        search = PathSearch(cfg, mode="exact")
        # Statically the landing block is unreachable.
        assert search.search(doublets) == []

        # A driver observes the jump at runtime and patches it in.
        cfg.add_edge(Edge(EdgeKind.JUMP, source=0x1000,
                          destination=landing, branch_pc=0x1004,
                          footprint=branch_footprint(0x1004, landing)))
        paths = search.search(doublets)
        assert len(paths) == 1
        assert paths[0].taken_branches == taken

    def test_version_bumps_on_mutation(self):
        from repro.cpu.footprint import branch_footprint
        from repro.pathfinder.cfg import Edge, EdgeKind

        program = build_counted_loop(2)
        cfg = ControlFlowGraph(program)
        before = cfg.version
        loop = program.address_of("loop")
        cfg.add_edge(Edge(EdgeKind.JUMP, source=loop, destination=loop,
                          branch_pc=loop,
                          footprint=branch_footprint(loop, loop)))
        assert cfg.version == before + 1

    def test_add_edge_validates_endpoints_and_footprint(self):
        from repro.pathfinder.cfg import Edge, EdgeKind

        program = build_counted_loop(2)
        cfg = ControlFlowGraph(program)
        loop = program.address_of("loop")
        with pytest.raises(KeyError):
            cfg.add_edge(Edge(EdgeKind.JUMP, source=0xDEAD,
                              destination=loop, footprint=0))
        with pytest.raises(KeyError):
            cfg.add_edge(Edge(EdgeKind.JUMP, source=loop,
                              destination=0xDEAD, footprint=0))
        with pytest.raises(ValueError):
            cfg.add_edge(Edge(EdgeKind.JUMP, source=loop,
                              destination=loop, branch_pc=loop))


class TestAmbiguity:
    def test_reports_multiple_matching_paths(self):
        """A victim crafted so two different paths yield one history.

        Exploits the footprint's XOR linearity: arm A (conditional taken,
        then a jump) and arm B (fall-through, then two jumps... rather,
        one jump from the fall-through block and one from its body) are
        built at addresses where the per-branch address-bit differences
        are cancelled by matching target-bit differences, so both paths
        fold to the same history.  The tool must return both, as the
        paper notes for 'intentionally crafted microbenchmarks'."""
        from repro.cpu.footprint import branch_footprint

        split_pc = 0x10000         # the jeq (64KiB aligned)
        fall_pc = 0x10004          # arm B's first jump (B2 differs)
        arm_a_pc = 0x20000         # arm A's jump
        arm_b_pc = 0x20010         # arm B's second jump (B4 differs)
        join_a = 0x30000
        join_b = 0x30042           # T1 cancels arm_b_pc's B4

        assert branch_footprint(split_pc, arm_a_pc) == \
               branch_footprint(fall_pc, arm_b_pc)
        assert branch_footprint(arm_a_pc, join_a) == \
               branch_footprint(arm_b_pc, join_b)

        b = ProgramBuilder(base=0xFFFC)
        b.cmp("rsel", imm=0)
        b.jeq("arm_a")             # at split_pc; fall-through is fall_pc
        b.label("arm_b_entry")     # at fall_pc
        b.jmp("arm_b_body")
        b.at(arm_a_pc)
        b.label("arm_a")
        b.jmp("join_from_a")
        b.at(arm_b_pc)
        b.label("arm_b_body")
        b.jmp("join_from_b")
        b.at(join_a)
        b.label("join_from_a")
        b.ret()
        b.at(join_b)
        b.label("join_from_b")
        b.ret()
        program = b.build()
        assert program.address_of("arm_b_entry") == fall_pc

        taken, doublets = history_of(program)  # rsel == 0 -> arm A
        cfg = ControlFlowGraph(program)
        paths = PathSearch(cfg, mode="exact", max_paths=4).search(doublets)
        assert len(paths) == 2
        assert any(path.taken_branches == taken for path in paths)
        # The ghost path exists and folds to the same history.
        ghost = next(p for p in paths if p.taken_branches != taken)
        assert replay_taken_branches(len(doublets),
                                     ghost.taken_branches).doublets() == \
               doublets


class TestMemos:
    def test_memos_are_shared_and_die_with_the_program(self):
        program = build_counted_loop(3)
        cfg = cached_cfg(program)
        search = cached_path_search(cfg, mode="window")
        assert cached_cfg(program) is cfg
        assert cached_cfg(program, entry=program.entry) is cfg
        assert cached_path_search(cfg, mode="window") is search
        assert cached_path_search(cfg) is not search
        refs = [weakref.ref(program), weakref.ref(cfg), weakref.ref(search)]
        del program, cfg, search
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
