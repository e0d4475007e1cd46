"""Static checks on the package source, stdlib only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "calib_lab"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no ``Name`` node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a".
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.ones(1)\n"
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def orphans(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the modules in ``sources`` (name ->
    source) that no other top-level statement of any module reads, as a
    ``Name`` or an attribute, and that ``__init__`` does not re-export."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    reads = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
              if isinstance(n, (ast.Name, ast.Attribute))} for stmt in statements]
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name in exported:
                continue
            # A function that only calls itself is still an orphan.
            if not any(stmt.name in names for other, names in zip(statements, reads)
                       if other is not stmt):
                found.append(f"{module}.{stmt.name}")
    return found


def test_scan_finds_an_orphan():
    sources = {"__init__": "from .a import used_outside\n",
               "a": "def used_outside():\n    pass\n\ndef helper():\n    pass\n\n"
                    "def orphan():\n    orphan()\n\nclass Kept:\n    x = helper()\n",
               "b": "from . import a\nA = a.Kept\n"}
    assert orphans(sources) == ["a.orphan"]


def test_every_definition_is_used_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphans(sources) == []
