"""Smoke tests: the example scripts must run end to end.

Examples are user-facing documentation; a broken example is a broken
deliverable.  The fast scripts run in-process here; the slower image
recovery demos are covered by the equivalent benchmarks and their own
integration tests.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def run_example(name, argv=()):
    script = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(f"example_{name}", script)
    module = importlib.util.module_from_spec(spec)
    old_argv = sys.argv
    sys.argv = [str(script)] + list(argv)
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        output = capsys.readouterr().out
        assert "match              : True" in output
        assert "recovered secret loop count: 12 (actual 12)" in output

    def test_pathfinder_cfg(self, capsys):
        run_example("pathfinder_cfg.py")
        output = capsys.readouterr().out
        assert "loop body iterations recovered: 9" in output

    def test_syscall_fingerprinting(self, capsys):
        run_example("syscall_fingerprinting.py")
        output = capsys.readouterr().out
        assert "identification rate: 12/12" in output

    def test_aes_key_extraction(self, capsys):
        run_example("aes_key_extraction.py")
        output = capsys.readouterr().out
        assert "MISMATCH" not in output
        assert output.count("[OK]") == 4
        assert "MATCH: True" in output

    def test_mitigation_evaluation(self, capsys):
        run_example("mitigation_evaluation.py")
        output = capsys.readouterr().out
        assert "FAIL" not in output
        assert output.count("PASS") >= 9

    def test_image_recovery_rejects_unknown_image(self):
        with pytest.raises(SystemExit):
            run_example("secret_image_recovery.py", argv=["no_such_image"])

    def test_example_scripts_all_have_main(self):
        for script in EXAMPLES.glob("*.py"):
            text = script.read_text()
            assert "def main(" in text, script.name
            assert '__name__ == "__main__"' in text, script.name
