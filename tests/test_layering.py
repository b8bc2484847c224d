"""Imports point down the layer stack, and test oracles stay out of it.

The attack service (:mod:`repro.service`) sits on top of the primitives,
the AES and JPEG attacks, the replay engine and the batch engine.  What
those layers share with it -- content identity, the trace cache, the
LRU and its counters -- lives below them, so an import of the service
from inside them is a layering fault: it drags the worker pool into
every attack's import graph.  Only the fuzz harness, which drives every
layer, may reach up to it.

The fuzz harness in turn holds the reference and naive twins
(:mod:`repro.fuzz.twins`).  No production module imports it, and no
production signature carries an option that would select a twin.

The scan walks the whole syntax tree, so an import tucked inside a
function body counts as much as a top-level one.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages allowed to import :mod:`repro.service`.
ALLOWED = ("repro.service", "repro.fuzz")

#: Option names that used to pick a reference or naive twin.
TWIN_KNOBS = {"engine", "data_path", "reuse", "memoize", "reset_probes"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(tree: ast.AST, module: str, is_package: bool):
    """Every ``(line, dotted name)`` an import statement in ``tree`` names.

    ``from X import y`` yields both ``X`` and ``X.y`` (``y`` may be a
    submodule); relative imports are resolved against ``module``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module.split(".")
                drop = node.level - 1 if is_package else node.level
                anchor = anchor[:len(anchor) - drop]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _within(name: str, packages) -> bool:
    return any(name == package or name.startswith(package + ".")
               for package in packages)


def upward_imports(target: str = "repro.service", allowed=ALLOWED):
    """``module:line -> name``, once per import of ``target`` from a
    module outside the ``allowed`` packages."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if _within(module, allowed):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for line, name in _imported_modules(
                tree, module, path.name == "__init__.py"):
            if _within(name, (target,)):
                found.setdefault(f"{module}:{line}", name)
    return sorted(f"{site} -> {name}" for site, name in found.items())


def test_scan_sees_every_module():
    modules = {_module_name(p) for p in (SRC / "repro").rglob("*.py")}
    assert {"repro.replay", "repro.primitives.read_phr",
            "repro.service.store", "repro.isa.identity"} <= modules


def test_scan_finds_function_local_and_relative_imports():
    source = ("def f():\n"
              "    from repro.service.store import SnapshotStore\n"
              "def g():\n"
              "    from ..service import jobs\n"
              "import repro.service\n")
    names = [name for __, name in _imported_modules(
        ast.parse(source), "repro.aes.attack", False)]
    assert "repro.service.store" in names
    assert "repro.service.jobs" in names
    assert "repro.service" in names


def test_no_module_below_the_service_imports_it():
    assert upward_imports() == []


def test_no_production_module_imports_the_fuzz_harness():
    assert upward_imports("repro.fuzz", ("repro.fuzz",)) == []


def _twin_knob_signatures():
    from repro.aes.victim import AesVictim
    from repro.cpu.machine import Machine
    from repro.jpeg.recovery import ImageRecoveryAttack
    from repro.pathfinder.search import PathSearch
    from repro.primitives.extended_read import ExtendedPhrReader
    from repro.primitives.read_phr import PhrReader
    from repro.primitives.read_pht import PhtReader
    from repro.replay import ReplayEngine

    callables = {
        "Machine.run": Machine.run,
        "AesVictim": AesVictim,
        "ReplayEngine": ReplayEngine,
        "PhrReader": PhrReader,
        "ExtendedPhrReader": ExtendedPhrReader,
        "PhtReader.read_batch": PhtReader.read_batch,
        "ImageRecoveryAttack": ImageRecoveryAttack,
    }
    names = {label: set(inspect.signature(target).parameters)
             for label, target in callables.items()}
    names["PathSearch"] = {field.name
                           for field in dataclasses.fields(PathSearch)}
    return names


def _job_parameter_names():
    """Every key a service job handler reads with ``params.get``."""
    import repro.service.jobs as jobs

    tree = ast.parse(inspect.getsource(jobs))
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "params"
            and node.args and isinstance(node.args[0], ast.Constant)}


def test_no_production_signature_selects_a_twin():
    signatures = _twin_knob_signatures()
    assert len(signatures) == 8
    knobs = {label: sorted(names & TWIN_KNOBS)
             for label, names in signatures.items() if names & TWIN_KNOBS}
    assert knobs == {}
    job_parameters = _job_parameter_names()
    assert {"count", "rounds", "vectorize"} <= job_parameters
    assert job_parameters & TWIN_KNOBS == set()
