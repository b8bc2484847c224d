"""Explicit equivalence tests for the documented oracle-side shortcuts
(ARCHITECTURE.md section 5) and for the predictor hot-path fast
implementations (DESIGN.md decision 5).

The fast paths -- the LUT branch footprint, the binary-halving XOR fold,
and the PHT index/tag folds cached on the PHR value -- each keep their
definitional loop twin (`*_reference`); the property tests here pin the
pairs bit-identical over random inputs, random mutation interleavings,
and every target machine configuration."""

from hypothesis import given, settings, strategies as st

from repro.cpu import Machine, RAPTOR_LAKE
from repro.cpu.config import TARGET_MACHINES
from repro.cpu.footprint import branch_footprint, branch_footprint_reference
from repro.cpu.pht import TaggedTable
from repro.cpu.phr import PathHistoryRegister
from repro.fuzz.twins import NaivePhrReader
from repro.primitives import PhrReader, VictimHandle
from repro.utils.bits import fold_xor, fold_xor_reference

from conftest import build_branchy_victim, build_counted_loop

address_strategy = st.integers(min_value=0, max_value=2**64 - 1)
history_strategy = st.integers(min_value=0, max_value=2**388 - 1)


def tables_for(config):
    """The tagged tables a :class:`Machine` of ``config`` would build."""
    return [
        TaggedTable(
            history_doublets=length,
            sets=config.pht_sets,
            ways=config.pht_ways,
            counter_bits=config.counter_bits,
            tag_bits=config.pht_tag_bits,
            pc_index_bit=config.pc_index_bit,
        )
        for length in config.pht_history_lengths
    ]


def hashes(tables, phr, pc=0x40AC00):
    return [(table.index(pc, phr), table.tag(pc, phr)) for table in tables]


def assert_hashes_match_reference(table, pc, phr):
    assert table.index(pc, phr) == table._reference_index(pc, phr)
    assert table.tag(pc, phr) == table._reference_tag(pc, phr)


class TestFootprintLutEquivalence:
    @given(address_strategy, address_strategy)
    @settings(max_examples=300)
    def test_lut_matches_reference(self, branch, target):
        assert branch_footprint(branch, target) == \
               branch_footprint_reference(branch, target)

    def test_target_space_exhaustive(self):
        """Only target[5:0] contributes, so sweep all 64 values."""
        for low in range(64):
            assert branch_footprint(0x40AC00, low) == \
                   branch_footprint_reference(0x40AC00, low)


class TestFoldXorEquivalence:
    @given(st.data())
    @settings(max_examples=200)
    def test_halving_matches_chunk_loop(self, data):
        width = data.draw(st.integers(min_value=1, max_value=400),
                          label="width")
        chunk = data.draw(st.integers(min_value=1, max_value=16),
                          label="chunk")
        value = data.draw(st.integers(min_value=0,
                                      max_value=(1 << width) - 1),
                          label="value")
        assert fold_xor(value, width, chunk) == \
               fold_xor_reference(value, width, chunk)


class TestFoldedHashEquivalence:
    """The cached/incremental index and tag folds vs. the chunk-loop
    reference hashes, across all three target machine configurations."""

    @given(history_strategy, address_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_histories(self, history, pc):
        for config in TARGET_MACHINES:
            phr = PathHistoryRegister(config.phr_capacity, history)
            for table in tables_for(config):
                assert_hashes_match_reference(table, pc, phr)

    def test_registers_take_turns_on_one_table(self):
        """The fold cache keys on the PHR value, not the register object:
        two registers alternating on one table each get their own folds,
        and a distinct register holding an already-folded value reuses
        them without a refold."""
        for config in TARGET_MACHINES:
            first = PathHistoryRegister(config.phr_capacity, value=0x5A5A)
            second = PathHistoryRegister(config.phr_capacity, value=0xA5A5)
            tables = tables_for(config)
            for i in range(6):
                for phr in (first, second):
                    phr.update(0x41F2C4 + 4 * i, 0x41F300 + 64 * i)
                    for table in tables:
                        assert_hashes_match_reference(table, 0x40AC00, phr)
            twin = first.copy()
            for table in tables:
                table.index(0x40AC00, first)
                refolds = []
                table._refold = refolds.append
                assert_hashes_match_reference(table, 0x40AC00, twin)
                assert refolds == []

    def test_return_to_an_earlier_value(self):
        """A PHR that comes back to a value by any route -- a restore, a
        set_value, a set_doublet undoing another -- hashes exactly as it
        did the first time."""
        for config in TARGET_MACHINES:
            phr = PathHistoryRegister(config.phr_capacity, value=0xF00D)
            tables = tables_for(config)
            snap = phr.snapshot()
            expected = hashes(tables, phr)
            for i in range(3):
                phr.update(0x40B000 + 4 * i, 0x40B100)
                for table in tables:
                    assert_hashes_match_reference(table, 0x40AC00, phr)
                if i % 2:
                    phr.set_value(0xF00D)
                else:
                    phr.restore(snap)
                assert hashes(tables, phr) == expected
            original = phr.doublet(0)
            phr.set_doublet(0, original ^ 1)
            for table in tables:
                assert_hashes_match_reference(table, 0x40AC00, phr)
            phr.set_doublet(0, original)
            assert hashes(tables, phr) == expected

    mutation_strategy = st.one_of(
        # Weight plain updates heavily: they are the commit path, and
        # runs of them move the value far from any earlier one.
        st.tuples(st.just("update"), address_strategy, address_strategy),
        st.tuples(st.just("update"), address_strategy, address_strategy),
        st.tuples(st.just("update"), address_strategy, address_strategy),
        st.tuples(st.just("set_value"), history_strategy),
        st.tuples(st.just("shift"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("set_doublet"),
                  st.integers(min_value=0, max_value=92),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("reverse"), address_strategy, address_strategy),
    )

    @given(st.lists(st.tuples(mutation_strategy, st.booleans()),
                    min_size=1, max_size=40),
           address_strategy)
    @settings(max_examples=25, deadline=None)
    def test_interleaved_mutations(self, steps, pc):
        """Random interleavings of taken-branch updates with every other
        PHR mutation, probed at random points, stay bit-identical to the
        reference hashes on every machine configuration.

        The per-step `probe` flag varies how far each table's fold cache
        falls behind, covering in-sync hits, refolds after one or many
        mutations, and mutations that leave the value unchanged."""
        for config in TARGET_MACHINES:
            phr = PathHistoryRegister(config.phr_capacity)
            tables = tables_for(config)
            for (operation, *arguments), probe in steps:
                if operation == "update":
                    phr.update(*arguments)
                elif operation == "set_value":
                    phr.set_value(arguments[0])
                elif operation == "shift":
                    phr.shift(arguments[0])
                elif operation == "clear":
                    phr.clear()
                elif operation == "set_doublet":
                    phr.set_doublet(*arguments)
                else:
                    phr.reverse_update(*arguments)
                if probe:
                    for table in tables:
                        assert_hashes_match_reference(table, pc, phr)
            for table in tables:
                assert_hashes_match_reference(table, pc, phr)


class TestVictimPhrCaching:
    def test_cached_and_uncached_reads_agree(self):
        """Read_PHR with the post-Clear PHR cache vs. full victim
        re-execution for every guess must recover identical doublets.

        The uncached side is :class:`repro.fuzz.twins.NaivePhrReader`,
        which re-runs ``Clear_PHR`` + the victim before every measured
        guess; counting the victim's ``invoke`` calls proves it did."""
        program = build_counted_loop(6)

        cached_machine = Machine(RAPTOR_LAKE)
        cached_reader = PhrReader(cached_machine,
                                  VictimHandle(cached_machine, program))
        cached = cached_reader.read(count=10)

        uncached_machine = Machine(RAPTOR_LAKE)

        class CountingVictim:
            def __init__(self):
                self.handle = VictimHandle(uncached_machine, program,
                                           mode="execute")
                self.invocations = 0

            def invoke(self, thread=0):
                self.invocations += 1
                self.handle.invoke(thread=thread)

        class CountingReader(NaivePhrReader):
            guesses = 0

            def _measure_guess(self, *args, **kwargs):
                CountingReader.guesses += 1
                return super()._measure_guess(*args, **kwargs)

        victim = CountingVictim()
        uncached = CountingReader(uncached_machine, victim).read(count=10)
        assert uncached.doublets == cached.doublets
        assert CountingReader.guesses >= 4 * 10
        assert victim.invocations >= CountingReader.guesses

    def test_replay_and_execute_victims_read_identically(self):
        program, __ = build_branchy_victim(seed=0x2D, conditional_count=8)
        results = {}
        for mode in ("replay", "execute"):
            machine = Machine(RAPTOR_LAKE)
            reader = PhrReader(machine,
                               VictimHandle(machine, program, mode=mode))
            results[mode] = reader.read(count=12).doublets
        assert results["replay"] == results["execute"]
