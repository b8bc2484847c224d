"""The is-the-fuzzer-alive self-test.

A differential fuzzer that never fires is indistinguishable from one
that works; these tests perturb one PHT update rule through the
test-only :attr:`ConditionalBranchPredictor.train_fault` hook and assert
the harness catches it within a small budget of programs, that the
shrinker reduces the trigger to a handful of instructions, and that the
persisted reproducer is a valid failing pytest case.
"""

from __future__ import annotations

import io
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz import cli, diff, generator, mutations
from repro.fuzz.corpus import FailureCase, write_reproducer
from repro.fuzz.shrink import shrink

#: The harness must catch an inverted PHT training rule within this many
#: programs (ISSUE acceptance: "within N programs"; in practice it fires
#: on most of them).
CATCH_BUDGET = 20

#: A shrunk reproducer must be at most this many static instructions.
SHRUNK_LIMIT = 30


def _run_reproducer(path: Path):
    """Run one persisted reproducer under a fresh pytest, in its directory."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "pytest", str(path), "-q", "-p",
         "no:cacheprovider", "-m", ""],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin",
             "HOME": "/tmp"},
        cwd=path.parent,
    )


def _find_first_failure(mutator_name: str, budget: int = CATCH_BUDGET):
    mutator = mutations.get_mutator(mutator_name)
    for index in range(budget):
        program = generator.generate_program(0, index, profile="smoke")
        divergences = diff.check_program(program, machine_mutator=mutator)
        if divergences:
            return program, divergences
    return None, []


class TestMutationSmoke:
    def test_clean_run_has_no_divergence(self):
        # Control arm: without the fault the same programs pass.
        for index in range(5):
            program = generator.generate_program(0, index, profile="smoke")
            assert diff.check_program(program) == []

    def test_injected_pht_fault_is_caught(self):
        program, divergences = _find_first_failure("pht-train-invert")
        assert program is not None, (
            f"fuzzer missed an inverted PHT training rule across "
            f"{CATCH_BUDGET} programs"
        )
        # The fault perturbs predictor training, so the divergence must
        # show up in predictor state or prediction accounting.
        kinds = {d.kind for d in divergences}
        assert kinds & {"machine.cbp.base", "machine.cbp.tables", "perf",
                        "machine.perf", "commit-stream"}

    def test_stuck_taken_fault_is_caught(self):
        program, _ = _find_first_failure("pht-train-stuck-taken")
        assert program is not None

    def test_shrinks_to_small_reproducer(self):
        mutator = mutations.get_mutator("pht-train-invert")
        program, _ = _find_first_failure("pht-train-invert")
        assert program is not None

        def fails(candidate):
            return bool(diff.check_program(candidate,
                                           machine_mutator=mutator))

        minimal = shrink(program, fails)
        assert len(minimal.program) <= SHRUNK_LIMIT
        assert len(minimal.shapes) <= len(program.shapes)
        assert fails(minimal), "shrunk program no longer fails"
        # Identity survives: the kept positions rebuild the same shapes
        # modulo within-shape reduction.
        assert minimal.kept is not None
        assert len(minimal.kept) == len(minimal.shapes)

    def test_emitted_reproducer_fails_under_pytest(self, tmp_path):
        mutator = mutations.get_mutator("pht-train-invert")
        program, _ = _find_first_failure("pht-train-invert")
        assert program is not None

        def fails(candidate):
            return bool(diff.check_program(candidate,
                                           machine_mutator=mutator))

        minimal = shrink(program, fails)
        divergences = diff.check_program(minimal, machine_mutator=mutator)
        case = FailureCase(fuzz_program=minimal,
                           divergences=tuple(divergences),
                           mutator="pht-train-invert")
        path = write_reproducer(case, directory=tmp_path)
        assert path.exists()

        completed = _run_reproducer(path)
        # The reproducer re-installs the deliberate fault, so it must
        # FAIL (the bug "lives"); a passing run means it reproduced
        # nothing.
        assert completed.returncode == 1, completed.stdout + completed.stderr
        assert "1 failed" in completed.stdout

    def test_cli_failure_shrinks_and_persists_a_reproducer(
            self, tmp_path, monkeypatch):
        """The campaign's failure path end to end: a mutated run exits 1,
        shrinks the first failing program (``--shrink-limit 1``) and
        writes exactly one reproducer, which fails under pytest."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        out = io.StringIO()
        code = cli.main(["--seed", "0", "--programs", "4", "--smoke",
                         "--mutate", "pht-train-invert",
                         "--corpus", str(tmp_path), "--shrink-limit", "1",
                         "-q"], out=out)
        assert code == 1, out.getvalue()
        reproducers = list(tmp_path.glob("test_corpus_*.py"))
        assert len(reproducers) == 1, out.getvalue()
        completed = _run_reproducer(reproducers[0])
        assert completed.returncode == 1, completed.stdout + completed.stderr
        assert "1 failed" in completed.stdout


class TestFaultHookPlumbing:
    def test_train_fault_defaults_off(self, machine):
        assert machine.cbp.train_fault is None

    def test_unknown_mutator_name_rejected(self):
        with pytest.raises(ValueError, match="unknown mutator"):
            mutations.get_mutator("definitely-not-a-mutator")

    def test_none_resolves_to_no_mutation(self):
        assert mutations.get_mutator(None) is None
        assert mutations.get_mutator("none") is None
