"""Section 6 evaluation: Pathfinder on microbenchmarks.

Paper: "We evaluate the accuracy of Pathfinder by (1) rigorously testing
well-designed microbenchmarks, including challenging scenarios such as
varying loop iterations, nested loops, and complex control flow graphs
... In all cases, Pathfinder accurately identifies the precise path
leading to the observed PHR value."

The sweep covers loop trip counts 2..64, nested loops of several shapes,
random diamond chains, and call-heavy CFGs; every case must yield the
executed path (and, per the paper, usually exactly one path).

The memoization experiment measures the search's dead-state
transposition table on its worst case: a chain of footprint-colliding
diamonds (both arms of every diamond fold the identical doublets into
the history, so backward states merge at each split) driven by an
unsatisfiable history.  Without the memo the walk re-explores every
merged subtree once per arriving route -- ``O(2^N)`` states for ``N``
diamonds; with it, each subtree is explored once and re-arrivals are
pruned.  The memo-less walk is ``repro.fuzz.twins.ExhaustivePathSearch``.
"""

import time

from repro.cpu import Machine, RAPTOR_LAKE
from repro.cpu.phr import replay_taken_branches
from repro.fuzz.twins import ExhaustivePathSearch
from repro.isa import ProgramBuilder
from repro.pathfinder import ControlFlowGraph, PathSearch
from repro.primitives import VictimHandle
from repro.utils.rng import DeterministicRng

from conftest import BENCH_QUICK, operation_count, print_table


def counted_loop(iterations):
    b = ProgramBuilder(f"loop{iterations}", base=0x410000)
    b.mov_imm("rcx", iterations)
    b.label("loop")
    b.sub("rcx", imm=1, set_flags=True)
    b.jne("loop")
    b.ret()
    return b.build()


def nested_loops(outer, inner):
    b = ProgramBuilder(f"nest{outer}x{inner}", base=0x418000)
    b.mov_imm("ro", outer)
    b.label("outer")
    b.mov_imm("ri", inner)
    b.label("inner")
    b.sub("ri", imm=1, set_flags=True)
    b.jne("inner")
    b.sub("ro", imm=1, set_flags=True)
    b.jne("outer")
    b.ret()
    return b.build()


def diamond_chain(seed, count):
    b = ProgramBuilder(f"diamond{seed}", base=0x420000)
    for index in range(count):
        bit = (seed >> index) & 1
        b.mov_imm("rb", bit)
        b.cmp("rb", imm=1)
        b.jeq(f"then_{index}")
        b.nop(1 + index % 3)
        b.jmp(f"join_{index}")
        b.label(f"then_{index}")
        b.nop(1)
        b.label(f"join_{index}")
    b.ret()
    return b.build()


def call_heavy(calls):
    b = ProgramBuilder(f"calls{calls}", base=0x428000)
    b.mov_imm("rcx", calls)
    b.label("loop")
    b.call("leaf_a")
    b.call("leaf_b")
    b.sub("rcx", imm=1, set_flags=True)
    b.jne("loop")
    b.ret()
    b.label("leaf_a")
    b.nop(2)
    b.ret()
    b.label("leaf_b")
    b.call("leaf_a")
    b.ret()
    return b.build()


def run_case(program):
    machine = Machine(RAPTOR_LAKE)
    handle = VictimHandle(machine, program)
    taken = handle.taken_branches()
    doublets = replay_taken_branches(max(len(taken), 1), taken).doublets()
    cfg = ControlFlowGraph(program)
    search = PathSearch(cfg, mode="exact", max_paths=4)
    paths = search.search(doublets)
    exact = any(path.taken_branches == taken for path in paths)
    return exact, len(paths), search.explored


def run_sweep():
    rng = DeterministicRng(0x6A11)
    cases = {}

    loop_results = [run_case(counted_loop(n))
                    for n in (2, 3, 5, 9, 17, 33, 64)]
    cases["varying loop iterations (7 cases)"] = loop_results

    nest_results = [run_case(nested_loops(o, i))
                    for o, i in ((2, 3), (3, 5), (5, 2), (4, 4))]
    cases["nested loops (4 shapes)"] = nest_results

    diamond_results = [run_case(diamond_chain(rng.value_bits(16), 16))
                       for _ in range(6)]
    cases["complex CFGs / diamond chains (6 cases)"] = diamond_results

    call_results = [run_case(call_heavy(n)) for n in (1, 3, 6)]
    cases["call/return heavy (3 cases)"] = call_results
    return cases


def test_sec6_pathfinder_microbenchmarks(benchmark):
    cases = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for name, results in cases.items():
        exact = sum(1 for ok, __, __ in results if ok)
        unique = sum(1 for __, count, __ in results if count == 1)
        rows.append([name, "precise path identified",
                     f"{exact}/{len(results)} exact, "
                     f"{unique}/{len(results)} unique"])
    print_table("Section 6 -- Pathfinder microbenchmark evaluation",
                ["scenario", "paper", "measured"], rows)

    for name, results in cases.items():
        assert all(ok for ok, __, __ in results), name
    total = sum(len(r) for r in cases.values())
    unique_total = sum(1 for results in cases.values()
                       for __, count, __ in results if count == 1)
    # "most cases exhibit a single path"
    assert unique_total >= total * 0.8
    benchmark.extra_info["cases"] = total
    benchmark.extra_info["unique"] = unique_total


# ----------------------------------------------------------------------
# dead-state transposition table (ISSUE 5 tentpole gate)
# ----------------------------------------------------------------------

MEMO_DIAMONDS = operation_count(13, 10)
MEMO_BASE = 0x440000
MEMO_STRIDE = 0x1000


def collision_chain(diamonds, seed):
    """A chain of diamonds whose two arms fold to identical histories.

    Per diamond the three footprint collisions exploit the XOR pairs of
    the Figure 2 layout (f5 = B2^T4, f0 = B4^T1, f6 = B1^T3 together
    with f4 = B11^T5): the taken arm's addresses and the fall-through
    arm's addresses differ only in bits a matching target-bit difference
    cancels.  Backward search states therefore merge at every diamond
    entry -- the transposition table's worst (best) case.
    """
    from repro.cpu.footprint import branch_footprint

    b = ProgramBuilder("collision_chain", base=MEMO_BASE)
    for k in range(diamonds):
        p = MEMO_BASE + k * MEMO_STRIDE
        if k:
            b.at(p)
        b.label(f"pad_{k}")        # jmp target of the previous join_a
        b.nop(10)
        b.label(f"body_{k}")       # at p+0x28; target of previous join_b
        b.mov_imm("rb", (seed >> k) & 1)
        b.cmp("rb", imm=1)
        b.jeq(f"arm_a_{k}")        # at p+0x30; fall-through jmp at p+0x34
        b.jmp(f"arm_b_{k}")
        b.at(p + 0x40)
        b.label(f"arm_a_{k}")
        b.jmp(f"join_a_{k}")
        b.at(p + 0x50)             # +0x10: B4, cancelled by join_b's T1
        b.label(f"arm_b_{k}")
        b.jmp(f"join_b_{k}")
        last = k + 1 == diamonds
        b.at(p + 0x80)
        b.label(f"join_a_{k}")
        b.jmp("exit_pad" if last else f"pad_{k + 1}")
        b.at(p + 0x882)            # +0x802: B1+B11, cancelled by T3+T5
        b.label(f"join_b_{k}")
        b.jmp("exit_body" if last else f"body_{k + 1}")
    p = MEMO_BASE + diamonds * MEMO_STRIDE
    b.at(p)
    b.label("exit_pad")
    b.nop(10)
    b.label("exit_body")
    b.ret()
    program = b.build()

    for k in range(diamonds):
        p = MEMO_BASE + k * MEMO_STRIDE
        nxt = p + MEMO_STRIDE
        assert branch_footprint(p + 0x30, p + 0x40) == \
            branch_footprint(p + 0x34, p + 0x50)
        assert branch_footprint(p + 0x40, p + 0x80) == \
            branch_footprint(p + 0x50, p + 0x882)
        assert branch_footprint(p + 0x80, nxt) == \
            branch_footprint(p + 0x882, nxt + 0x28)
    return program


def run_memoize_arms():
    program = collision_chain(MEMO_DIAMONDS, seed=0x2A5F)
    machine = Machine(RAPTOR_LAKE)
    taken = VictimHandle(machine, program).taken_branches()
    width = len(taken) + 1
    doublets = replay_taken_branches(width, taken).doublets()
    cfg = ControlFlowGraph(program)

    # Positive control: the executed path is recoverable (ambiguously --
    # every arm choice folds identically, so stop at the first match).
    control = PathSearch(cfg, mode="exact", max_paths=1)
    control_paths = control.search(doublets)

    # The measured case: corrupt the deepest doublet, which sits above
    # every branch's matchable window (the reversal consumes doublet 0
    # only; with width = taken+1 the top doublet never reaches it).
    # Every route still doublet-matches all the way back to the entry,
    # but forward verification rejects it there -- all subtrees are dead.
    doublets = doublets[:-1] + [(doublets[-1] + 1) % 4]
    arms = {}
    for memoize, search_class in ((True, PathSearch),
                                  (False, ExhaustivePathSearch)):
        search = search_class(cfg, mode="exact")
        start = time.perf_counter()
        paths = search.search(doublets)
        arms[memoize] = {
            "elapsed": time.perf_counter() - start,
            "paths": [path.taken_branches for path in paths],
            "explored": search.explored,
            "pruned": search.pruned,
        }
    return control_paths, arms


def test_sec6_pathfinder_memoization(benchmark):
    control_paths, arms = benchmark.pedantic(run_memoize_arms, rounds=1,
                                             iterations=1)
    memo, naive = arms[True], arms[False]
    explored_ratio = naive["explored"] / memo["explored"]
    speedup = naive["elapsed"] / memo["elapsed"]

    print_table(
        f"Section 6 -- dead-state transposition table "
        f"({MEMO_DIAMONDS}-diamond collision chain, "
        f"{'quick' if BENCH_QUICK else 'full'} mode)",
        ["search", "states explored", "pruned", "time", "speedup"],
        [
            ["naive (exhaustive twin)", naive["explored"], naive["pruned"],
             f"{naive['elapsed']:.4f}s", "1.00x"],
            ["transposition table", memo["explored"], memo["pruned"],
             f"{memo['elapsed']:.4f}s", f"{speedup:.2f}x"],
        ],
    )

    assert control_paths and control_paths[0].reaches_entry
    # Identical results: both searches prove the history unsatisfiable.
    assert memo["paths"] == naive["paths"] == []
    assert memo["pruned"] > 0 and naive["pruned"] == 0
    # The naive walk pays the exponential route blow-up; the memo keeps
    # it near-linear in the diamond count.
    assert explored_ratio >= 3.0, (
        f"memoized search only {explored_ratio:.2f}x fewer states")
    if BENCH_QUICK:
        assert speedup >= 3.0, (
            f"memoized search only {speedup:.2f}x faster")

    benchmark.extra_info.update({
        "memo_speedup": round(speedup, 2),
        "explored_ratio": round(explored_ratio, 1),
        "explored_naive": naive["explored"],
        "explored_memo": memo["explored"],
        "diamonds": MEMO_DIAMONDS,
    })
