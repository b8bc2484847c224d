"""Imports point down the layer stack: nothing below the service imports it.

The attack service (:mod:`repro.service`) sits on top of the primitives,
the AES and JPEG attacks, the replay engine and the batch engine.  What
those layers share with it -- content identity, the trace cache, the
LRU and its counters -- lives below them, so an import of the service
from inside them is a layering fault: it drags the worker pool into
every attack's import graph.  Only the fuzz harness, which drives every
layer, may reach up to it.

The scan walks the whole syntax tree, so an import tucked inside a
function body counts as much as a top-level one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages allowed to import :mod:`repro.service`.
ALLOWED = ("repro.service", "repro.fuzz")


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


def _is_service(name: str) -> bool:
    return name == "repro.service" or name.startswith("repro.service.")


def _allowed(module: str) -> bool:
    return any(module == package or module.startswith(package + ".")
               for package in ALLOWED)


def upward_imports():
    """``module:line -> name``, once per forbidden import statement."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if _allowed(module):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for line, name in _imported_modules(
                tree, module, path.name == "__init__.py"):
            if _is_service(name):
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
