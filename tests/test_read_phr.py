"""Tests for the Read_PHR primitive (Attack Primitive 1, Figure 4)."""

import pytest

from repro.cpu import Machine, RAPTOR_LAKE, SKYLAKE
from repro.cpu.phr import replay_taken_branches
from repro.primitives import PhrMacros, PhrReader, VictimHandle
from repro.utils.rng import DeterministicRng

from conftest import build_branchy_victim, build_counted_loop


def ground_truth_doublets(program, capacity):
    machine = Machine(RAPTOR_LAKE)
    handle = VictimHandle(machine, program)
    return replay_taken_branches(capacity, handle.taken_branches()).doublets()


class TestReadDoublets:
    def test_recovers_loop_victim_prefix(self):
        program = build_counted_loop(6)
        truth = ground_truth_doublets(program, 194)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        result = reader.read(count=12)
        assert result.doublets == truth[:12]

    def test_recovers_branchy_victim(self):
        program, __ = build_branchy_victim(seed=0xB7, conditional_count=10)
        truth = ground_truth_doublets(program, 194)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        result = reader.read(count=20)
        assert result.doublets == truth[:20]

    def test_collision_guess_has_elevated_mispredictions(self):
        """The matching guess shows ~50% mispredicts, others near zero --
        the Figure 4 signature."""
        program = build_counted_loop(5)
        truth = ground_truth_doublets(program, 194)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        rates = {guess: reader._measure_guess(0, guess, [])
                 for guess in range(4)}
        matching = rates.pop(truth[0])
        assert matching >= 0.3
        assert all(rate <= 0.2 for rate in rates.values())

    def test_read_doublet_validates_known_prefix(self):
        program = build_counted_loop(3)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        with pytest.raises(ValueError):
            reader.read_doublet(2, known=[1])

    def test_read_count_validated(self):
        program = build_counted_loop(3)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        with pytest.raises(ValueError):
            reader.read(count=0)
        with pytest.raises(ValueError):
            reader.read(count=195)

    def test_bad_count_raises_named_error(self):
        """Out-of-range counts raise DoubletCountError (not a silent
        truncation, and catchable apart from generic ValueErrors)."""
        from repro.primitives import DoubletCountError

        program = build_counted_loop(3)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        with pytest.raises(DoubletCountError):
            reader.read(count=reader.capacity + 1)
        with pytest.raises(DoubletCountError):
            reader.read(count=-3)


class TestReusePolicies:
    def test_unknown_reuse_rejected(self):
        program = build_counted_loop(3)
        machine = Machine(RAPTOR_LAKE)
        with pytest.raises(ValueError):
            PhrReader(machine, VictimHandle(machine, program), reuse="magic")

    @pytest.mark.parametrize("seed", [0, 5])
    def test_checkpoint_matches_naive_twin_bit_for_bit(self, seed):
        """reuse='checkpoint' (restore per guess) and reuse='none'
        (re-run the prefix per guess) must agree on every doublet AND
        every observed misprediction rate -- the equivalence the replay
        engine's determinism contract promises."""
        program, __ = build_branchy_victim(seed=0xC0 + seed,
                                           conditional_count=8)
        results = {}
        for reuse in ("checkpoint", "none"):
            machine = Machine(RAPTOR_LAKE)
            reader = PhrReader(machine, VictimHandle(machine, program),
                               rng=DeterministicRng(seed), reuse=reuse)
            results[reuse] = reader.read(count=10)
        assert results["checkpoint"].doublets == results["none"].doublets
        assert results["checkpoint"].confidence == results["none"].confidence
        assert results["checkpoint"].iterations == results["none"].iterations

    def test_checkpoint_runs_victim_once(self):
        program = build_counted_loop(4)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        reader.read(count=6)
        assert reader.replay.stats.prefix_runs == 1
        assert reader.replay.stats.checkpoint_hits == 6 * 4


class TestSection42Evaluation:
    """Paper Section 4.2: write 1000 random PHRs and read them back; the
    primitive retrieved all of them.  A sampled version runs here; the
    full-scale run lives in benchmarks/bench_sec4_read_phr_eval.py."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_write_then_read_roundtrip(self, seed):
        rng = DeterministicRng(seed)
        machine = Machine(RAPTOR_LAKE)
        macros = PhrMacros(machine)
        planted = rng.value_bits(388)

        class PlantedVictim:
            """A 'victim' whose only effect is installing the PHR value --
            the evaluation setup of Section 4.2."""

            def invoke(self, thread=0):
                macros.apply_write(planted, thread=thread)

        reader = PhrReader(machine, PlantedVictim(),
                           rng=DeterministicRng(seed + 100))
        result = reader.read(count=16)
        expected = [(planted >> (2 * i)) & 0b11 for i in range(16)]
        assert result.doublets == expected

    def test_all_taken_measurement_tie_is_remeasured(self):
        """A doublet whose measured train directions are all *taken*
        reads 0.0 for every guess; the reader must re-measure it rather
        than take guess 0.  Inputs: op 25 of the seed-102 planted-PHR
        stream (a 388-bit value, a 16-doublet window and a reader seed
        drawn per op from ``random.Random(102)``), where doublet 8 ties."""
        import random

        stream = random.Random(102)
        for op in range(26):
            planted = stream.getrandbits(388)
            count = 194 if op % 8 == 7 else 16
            seed = stream.getrandbits(32)
        machine = Machine(RAPTOR_LAKE)
        macros = PhrMacros(machine)

        class PlantedVictim:
            def invoke(self, thread=0):
                macros.apply_write(planted, thread=thread)

        reader = PhrReader(machine, PlantedVictim(),
                           rng=DeterministicRng(seed))
        result = reader.read(count=count)
        expected = [(planted >> (2 * i)) & 0b11 for i in range(count)]
        assert result.doublets == expected
        assert min(result.confidence) > 0.0
        # The re-measured doublet cost one extra pass of four guesses.
        per_pass = 4 * (reader.warmup + reader.measure)
        assert result.iterations == (count + 1) * per_pass

    def test_unbreakable_tie_raises_named_error(self, monkeypatch):
        from repro.primitives import AmbiguousDoubletError
        from repro.primitives.read_phr import TIE_RETRIES

        program = build_counted_loop(3)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        passes = []
        monkeypatch.setattr(
            reader, "_measure_guess",
            lambda index, guess, known, attempt=0: passes.append(attempt)
            or 0.0)
        with pytest.raises(AmbiguousDoubletError, match="doublet 0"):
            reader.read(count=4)
        assert sorted(set(passes)) == list(range(1 + TIE_RETRIES))

    def test_confidence_reported_per_doublet(self):
        program = build_counted_loop(4)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        result = reader.read(count=4)
        assert len(result.confidence) == 4
        assert all(rate >= 0.25 for rate in result.confidence)

    def test_value_property_packs_doublets(self):
        program = build_counted_loop(4)
        machine = Machine(RAPTOR_LAKE)
        reader = PhrReader(machine, VictimHandle(machine, program))
        result = reader.read(count=8)
        for index in range(8):
            assert (result.value >> (2 * index)) & 0b11 == \
                   result.doublets[index]


class TestSkylake:
    def test_read_works_on_93_doublet_phr(self):
        program = build_counted_loop(5)
        machine = Machine(SKYLAKE)
        handle = VictimHandle(machine, program)
        truth = replay_taken_branches(93, handle.taken_branches()).doublets()
        reader = PhrReader(machine, handle)
        result = reader.read(count=10)
        assert result.doublets == truth[:10]
