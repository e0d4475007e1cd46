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


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def defined_names(stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class, or a constant,
    a plain name bound to a literal. An alias of another definition is not a
    constant, and dunder names such as ``__version__`` are exempt."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or _literal(stmt.value) is None:
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)
            and not (t.id.startswith("__") and t.id.endswith("__"))]


def orphans(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants of the modules in ``sources``
    (name -> source) that no other top-level statement of any module reads, as a
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
            for name in defined_names(stmt):
                # A function that only calls itself is still an orphan.
                if name not in exported and not any(
                        name in names for other, names in zip(statements, reads)
                        if other is not stmt):
                    found.append(f"{module}.{name}")
    return found


def test_scan_finds_an_orphan():
    sources = {"__init__": "from .a import used_outside\n",
               "a": "def used_outside():\n    pass\n\ndef helper():\n    pass\n\n"
                    "def orphan():\n    orphan()\n\nclass Kept:\n    x = helper()\n",
               "b": "from . import a\nA = a.Kept\n"}
    assert orphans(sources) == ["a.orphan"]


def test_scan_finds_an_orphan_constant():
    sources = {"__init__": "from .a import EXPORTED, f\n__version__ = '1'\n",
               "a": "EXPORTED = 1\nUSED = 2\nORPHAN = 3\nTYPED: int = 4\n__all__ = []\n"
                    "ALIAS = f\n\ndef f():\n    return USED\n"}
    assert orphans(sources) == ["a.ORPHAN", "a.TYPED"]


def test_every_definition_is_used_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphans(sources) == []


# Row sums over classes and stable orders of a vector go through the tensor_math kernels.
# top_k_indices keeps its stable row-wise argsort: at 300k x 10 the default sort plus the
# tie fix took 105 ms against 76 ms for numpy's stable sort (2-core VM, numpy 2.4.6).
KERNEL_MODULES = ["tensor_math", "losses", "baselines", "metrics"]
KERNELS = {"row_sums", "stable_order", "top_k_indices"}


def bypassed_kernels(source: str) -> list[str]:
    """Calls outside the functions in KERNELS that sum rows (``.sum`` or ``np.sum``
    with axis 1 or -1) or sort stably (``kind="stable"`` or ``"mergesort"``)."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in KERNELS for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute) \
                or id(node) in inside:
            continue
        keywords = {k.arg: _literal(k.value) for k in node.keywords}
        if node.func.attr == "sum" and keywords.get("axis") in (1, -1):
            found.append((node.lineno, "row sum"))
        if keywords.get("kind") in ("stable", "mergesort"):
            found.append((node.lineno, "stable sort"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scan_finds_a_bypassed_kernel():
    source = ("import numpy as np\n"
              "def row_sums(A):\n    return A.sum(axis=1)\n"
              "def f(A, v):\n    a = A.sum(axis=1) + np.sum(A * A, axis=-1)\n"
              "    b = np.argsort(v, kind='stable')\n"
              "    return A.sum(axis=0), np.sum(v), np.argsort(v), np.sort(v, kind='mergesort')\n")
    assert bypassed_kernels(source) == ["line 5: row sum", "line 5: row sum",
                                        "line 6: stable sort", "line 7: stable sort"]


@pytest.mark.parametrize("module", KERNEL_MODULES)
def test_row_sums_and_stable_orders_use_the_kernels(module):
    assert bypassed_kernels((SRC / f"{module}.py").read_text()) == []
