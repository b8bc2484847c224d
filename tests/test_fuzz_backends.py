"""Fixed-seed fuzz smoke of the per-backend differential arms.

The per-backend pass (:func:`repro.fuzz.diff.check_program_backends`)
reruns the family-generic twin arms -- reference-vs-fast engine
equivalence, snapshot replay, snapshot wire round-trip, and the
vectorized batch-twin / cached-trace arms -- for every registered
predictor family over the same generated program.  This smoke pins a
small fixed-seed corpus clean for all families, and proves the pass is
not vacuously green by injecting a fast-arm perturbation (scalar arms)
and an inverted batch mispredict mask (batch arms), demanding
model-prefixed divergences both times.
"""

import pytest

from repro.cpu.model import model_ids
from repro.fuzz.cli import _resolve_backends, build_parser
from repro.fuzz.diff import check_program, check_program_backends
from repro.fuzz.generator import generate_program

#: Fixed corpus: seed and program indices (smoke profile, CI-sized).
SMOKE_SEED = 0xBAC_0FF
SMOKE_INDICES = range(6)


class TestBackendSweep:
    @pytest.mark.parametrize("index", SMOKE_INDICES)
    def test_fixed_seed_corpus_clean_on_all_backends(self, index):
        program = generate_program(SMOKE_SEED, index, profile="smoke")
        divergences = check_program_backends(program)
        assert divergences == [], [str(d) for d in divergences]

    def test_backend_variant_changes_only_the_family(self):
        program = generate_program(SMOKE_SEED, 0, profile="smoke")
        variant = program.with_predictor_model("m1-phr")
        assert variant.program is program.program
        assert variant.machine_config.predictor_model == "m1-phr"
        base = program.machine_config
        assert variant.machine_config == type(base)(
            **{**base.__dict__, "predictor_model": "m1-phr"})

    def test_own_family_is_skipped(self):
        program = generate_program(SMOKE_SEED, 1, profile="smoke")
        own = program.machine_config.predictor_model
        assert check_program_backends(program, backends=(own,)) == []


class TestNotVacuous:
    @pytest.mark.parametrize("model_id",
                             ["gshare-tournament", "m1-phr"])
    def test_fast_arm_perturbation_is_caught(self, model_id):
        program = generate_program(SMOKE_SEED, 2, profile="smoke")

        def poke(machine):
            # Pre-train one entry on the fast arms only; the reference
            # arm starts cold, so the twins must diverge.
            machine.cbp.update(0x40_0000, machine.thread().phr, True)

        divergences = check_program_backends(
            program, backends=(model_id,), machine_mutator=poke)
        assert divergences
        assert all(str(d).startswith(f"[{model_id}:")
                   for d in divergences), [str(d) for d in divergences]

    def test_default_family_arms_unaffected_by_backend_pass(self):
        program = generate_program(SMOKE_SEED, 3, profile="smoke")
        assert check_program(program) == []


class TestBatchTwinNotVacuous:
    """The per-family batch-twin arm actually exercises the backend."""

    @pytest.mark.parametrize("model_id",
                             ["gshare-tournament", "m1-phr"])
    def test_inverted_mispredict_mask_is_caught(self, monkeypatch,
                                                model_id):
        pytest.importorskip("numpy")
        from repro.batch import batch_backend_for

        backend_cls = batch_backend_for(model_id)
        real_observe = backend_cls.observe

        def inverted_observe(self, rows, pc, taken):
            # State updates run unchanged; only the reported mispredict
            # mask flips, so the perf counters diverge from the scalar
            # twins while control flow stays identical.
            return ~real_observe(self, rows, pc, taken)

        monkeypatch.setattr(backend_cls, "observe", inverted_observe)
        program = generate_program(SMOKE_SEED, 4, profile="smoke")
        divergences = check_program_backends(program,
                                             backends=(model_id,))
        labels = [str(d) for d in divergences]
        assert divergences, "inverted batch mask went undetected"
        assert any("batch-twin" in label for label in labels), labels
        assert all(label.startswith(f"[{model_id}:")
                   for label in labels), labels


class TestCliWiring:
    def test_backends_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["--backends", "all"])
        assert _resolve_backends(args.backends) == tuple(model_ids())

    def test_backends_list_parses(self):
        assert _resolve_backends("m1-phr, gshare-tournament") == (
            "m1-phr", "gshare-tournament")

    def test_backends_rejects_unknown_ids(self):
        with pytest.raises(Exception, match="no-such"):
            _resolve_backends("no-such-model")

    def test_backends_default_off(self):
        assert _resolve_backends(None) is None
