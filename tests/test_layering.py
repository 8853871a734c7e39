"""Import-graph rules over ``src/repro``, read with ``ast``.

Nothing is imported to check them: every ``import`` / ``from ...
import`` statement of every module — including the ones inside
functions — is collected from the source.  A rule fails on the first
module whose statements name a module it must not.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_names(path: Path) -> Set[str]:
    """Every module a file's import statements can bind.

    ``from a.b import c`` counts as ``a.b`` and ``a.b.c`` (``c`` may be
    a submodule); relative imports are resolved against the file's
    package.
    """
    name = module_name(path)
    package = name if path.name == "__init__.py" \
        else name.rpartition(".")[0]
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


IMPORTS: Dict[str, Set[str]] = {
    module_name(path): imported_names(path)
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def importers(target: str) -> Set[str]:
    return {
        module for module, names in IMPORTS.items()
        if any(name == target or name.startswith(target + ".")
               for name in names)
    }


def test_the_scan_sees_function_local_imports():
    # They are how most cross-layer edges are made.
    assert "repro.core.joins.base" in importers("repro.latemat")
    assert "repro.kernels" in importers("repro.kernels.partition")


def test_nothing_imports_the_wire_codec():
    assert importers("repro.kernels.wirecodec") \
        <= {"repro.kernels.wirecodec"}


@pytest.mark.parametrize("module", [
    "repro.jen.exchange", "repro.jen.spill", "repro.net.transfer",
    "repro.edw.worker",
])
def test_data_movement_does_not_import_late_materialization(module):
    assert module in IMPORTS
    assert module not in importers("repro.latemat")
