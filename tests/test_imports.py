"""No module of the package imports a name it never reads.

A deleted function can leave its imports behind, and nothing else notices.
This scans each ``src/torsionlab`` module except ``__init__.py``, whose
imports are the public API.  An import on a line marked ``# unused here``
is kept on purpose (the benchmark binds it on the importing module) and
is skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "torsionlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
MARKER = "# unused here"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the source never reads, in line order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if MARKER not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).partition(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_read(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from re import (\n"
        "    compile,\n"
        "    escape as esc,  # unused here\n"
        "    search,\n"
        ")\n"
        "print(search)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "compile")]
