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


BENCH = SRC.parents[1] / "bench"
# Methods and properties kept public on purpose with no reader in src or bench,
# each with its reason.
PUBLIC_MEMBERS: dict[str, str] = {}


def attribute_reads(tree, skip) -> set[str]:
    """Names read as an attribute anywhere in ``tree``, outside the node ``skip``."""
    inside = {id(n) for n in ast.walk(skip)}
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load) and id(n) not in inside}


def orphan_members(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Methods and properties, dunders aside, of the top-level classes of the
    modules in ``package`` (name -> source) that no attribute read in
    ``package`` or ``readers`` names, outside the member's own definition."""
    trees = {name: ast.parse(source) for name, source in {**readers, **package}.items()}
    found = []
    for module in package:
        for cls in trees[module].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__") \
                        and not any(member.name in attribute_reads(tree, member)
                                    for tree in trees.values()):
                    found.append(f"{module}.{cls.name}.{member.name}")
    return found


def test_scan_finds_an_orphan_member():
    package = {"a": "class K:\n    field: int = 0\n\n    def used(self):\n        pass\n\n"
                    "    @property\n    def benched(self):\n        return 1\n\n"
                    "    def written(self):\n        pass\n\n"
                    "    def recursive(self):\n        return self.recursive()\n\n"
                    "    def __repr__(self):\n        return ''\n",
               "b": "from .a import K\nK().used()\nK().written = 1\n"}
    bench = {"run": "from calib_lab.a import K\nprint(K().benched)\n"}
    assert orphan_members(package, bench) == ["a.K.written", "a.K.recursive"]


def test_every_class_member_is_read():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = {f"bench/{p.stem}": p.read_text() for p in sorted(BENCH.glob("*.py"))}
    assert sorted(orphan_members(package, bench)) == sorted(PUBLIC_MEMBERS)


# Raw input is read by the check_* helpers and read_array of tensor_math alone.
CHECKS_MODULE = "tensor_math"


def stray_checks(source: str) -> list[str]:
    """Definitions of a ``check_*`` function, at any depth, and imports of
    ``numbers``, the module the helpers read integers and reals with."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_"):
            found.append(f"line {node.lineno}: defines {node.name}")
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) else [])
        if "numbers" in names:
            found.append(f"line {node.lineno}: imports numbers")
    return found


def test_scan_finds_a_stray_check():
    source = ("import numbers\nfrom numbers import Integral\nimport numpy as np\n"
              "def check_k(k):\n    def check_inner():\n        pass\n"
              "def _checked(v):\n    return v\n")
    assert stray_checks(source) == ["line 1: imports numbers", "line 2: imports numbers",
                                    "line 4: defines check_k", "line 5: defines check_inner"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != CHECKS_MODULE],
                         ids=lambda p: p.name)
def test_raw_input_checks_live_in_tensor_math(path):
    assert stray_checks(path.read_text()) == []


# Row sums and row maxima over classes and stable orders of a vector go through the
# tensor_math kernels. top_k_indices is scanned too: it takes k argmax passes, whose
# first-maximum rule gives ties in index order, so it needs no stable sort.
KERNEL_MODULES = ["tensor_math", "losses", "baselines", "metrics"]
KERNELS = {"row_sums", "row_max", "stable_order"}


def bypassed_kernels(source: str) -> list[str]:
    """Calls outside the functions in KERNELS that sum rows (``.sum`` or ``np.sum``
    with axis 1 or -1), take a row max (``.max``, ``np.max`` or ``np.amax`` with
    axis 1 or -1) or sort stably (``kind="stable"`` or ``"mergesort"``)."""
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
        if node.func.attr in ("max", "amax") and keywords.get("axis") in (1, -1):
            found.append((node.lineno, "row max"))
        if keywords.get("kind") in ("stable", "mergesort"):
            found.append((node.lineno, "stable sort"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scan_finds_a_bypassed_kernel():
    source = ("import numpy as np\n"
              "def row_sums(A):\n    return A.sum(axis=1)\n"
              "def f(A, v):\n    a = A.sum(axis=1) + np.sum(A * A, axis=-1)\n"
              "    b = np.argsort(v, kind='stable')\n"
              "    return A.sum(axis=0), np.sum(v), np.argsort(v), np.sort(v, kind='mergesort')\n"
              "def row_max(A):\n    return A.max(axis=-1)\n"
              "def g(A, v):\n    m = A.max(axis=1, keepdims=True) - np.max(A, axis=-1)\n"
              "    return m + np.amax(A, axis=1), A.max(axis=0), np.max(v), A.argmax(axis=1)\n")
    assert bypassed_kernels(source) == ["line 5: row sum", "line 5: row sum",
                                        "line 6: stable sort", "line 7: stable sort",
                                        "line 11: row max", "line 11: row max",
                                        "line 12: row max"]


@pytest.mark.parametrize("module", KERNEL_MODULES)
def test_row_sums_and_stable_orders_use_the_kernels(module):
    assert bypassed_kernels((SRC / f"{module}.py").read_text()) == []


# Training pays for a full pass over the data per epoch only where its trace is read.
TRAINERS = {"train", "train_stack"}


def untraced_trainings(source: str) -> list[str]:
    """Calls of ``train`` or ``train_stack`` that drop their trace without
    passing ``trace=False``: the call's value discarded, or unpacked (in an
    assignment, a ``for`` or a comprehension) into a pair whose trace is
    ``_`` or a name that its function never reads."""
    tree = ast.parse(source)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Module)):
            continue
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Expr):
                value, target = node.value, None
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                value, target = node.value, node.targets[0]
            elif isinstance(node, (ast.For, ast.comprehension)):
                value, target = node.iter, node.target
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            name = getattr(value.func, "id", getattr(value.func, "attr", None))
            if name not in TRAINERS or any(k.arg == "trace" and _literal(k.value) is False
                                           for k in value.keywords):
                continue
            if target is None or (isinstance(target, ast.Tuple) and len(target.elts) == 2
                                  and isinstance(target.elts[1], ast.Name)
                                  and target.elts[1].id not in read):
                found.add((value.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scan_finds_an_untraced_training():
    source = ("def f(d, ds, c):\n"
              "    p, _ = train(d, c)\n"
              "    q, unread = calibrator.train(d, c)\n"
              "    kept = [m for m, _ in train_stack(ds, c)]\n"
              "    train(d, c)\n"
              "    r, t = train(d, c)\n"
              "    s, _ = train(d, c, trace=False)\n"
              "    u, _ = train(d, c, trace=bool(t))\n"
              "    return p, q, kept, r, t, s, u, train_stack(ds, c)\n")
    assert untraced_trainings(source) == ["line 2: train", "line 3: train",
                                          "line 4: train_stack", "line 5: train",
                                          "line 8: train"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_dropped_trace_is_not_computed(path):
    assert untraced_trainings(path.read_text()) == []


# Every raise names a class of errors.py, and every class there but the base is raised.
BASE_ERROR = "CalibrationError"


def stray_raises(sources: dict[str, str]) -> list[str]:
    """``raise`` statements of the modules in ``sources`` (name -> source) that name
    no class of ``errors``, ``raise ... from`` ones included, and the classes of
    ``errors``, the base aside, that no module raises. A bare ``raise`` re-raises
    what was caught and names nothing."""
    classes = {node.name for node in ast.parse(sources["errors"]).body
               if isinstance(node, ast.ClassDef)}
    raised = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None)) or ast.unparse(exc)
                raised.append((module, node.lineno, name))
    found = [f"{module} line {line}: raises {name}" for module, line, name in sorted(raised)
             if name not in classes]
    unraised = classes - {name for _, _, name in raised} - {BASE_ERROR}
    return found + [f"errors.{name} is never raised" for name in sorted(unraised)]


def test_scan_finds_a_stray_raise():
    sources = {"errors": "class CalibrationError(Exception):\n    pass\n\n"
                         "class BadInput(CalibrationError):\n    pass\n\n"
                         "class Unused(CalibrationError):\n    pass\n",
               "a": "from . import errors\nfrom .errors import BadInput\n\n"
                    "def f(x, error=BadInput):\n    try:\n"
                    "        if x:\n            raise errors.BadInput('x')\n"
                    "        raise error('y')\n"
                    "    except BadInput as exc:\n        raise ValueError('z') from exc\n"
                    "    except KeyError:\n        raise\n"}
    assert stray_raises(sources) == ["a line 8: raises error", "a line 10: raises ValueError",
                                     "errors.Unused is never raised"]


def test_every_raise_names_an_error_class():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert stray_raises(sources) == []


# Scoring makes no BLAS call, whose rounding of a row may depend on the rows beside it, and
# does not run the trainer's forward: a record's temperature is that of the record alone.
SCORERS = {"forward_batch", "calibrate_dataset", "feature_matrix"}
BLAS_OR_TRAINER_CALLS = {"matmul", "dot", "tensordot", "_forward_trace", "grad_params"}


def blas_in_scoring(source: str) -> list[str]:
    """BLAS products (``np.matmul``, ``np.dot``, ``np.tensordot``, ``@`` or an ``einsum``
    with ``optimize``) and calls of ``_forward_trace`` or ``grad_params`` in the functions
    of SCORERS or in any top-level function of ``source`` they call by name."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    todo, seen = [name for name in SCORERS if name in functions], set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [n.func.id for n in ast.walk(functions[name]) if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Name) and n.func.id in functions]
    found = set()
    for name in seen:
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.add((node.lineno, "@"))
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if called in BLAS_OR_TRAINER_CALLS or called == "einsum" and any(
                    k.arg == "optimize" and _literal(k.value) is not False for k in node.keywords):
                found.add((node.lineno, called))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scan_finds_blas_in_scoring():
    source = ("import numpy as np\n"
              "def forward_batch(p, F):\n    return _layer(F, p.w) + F @ p.w.T\n"
              "def _layer(h, w):\n    return np.einsum('nj,oj->no', h, w, optimize=True)\n"
              "def calibrate_dataset(p, d):\n    h = d.F\n    h @= p.w\n"
              "    return _forward_trace(p, h), np.tensordot(h, p.w, 1)\n"
              "def feature_matrix(d, k):\n"
              "    return d.F.dot(d.w), np.einsum('ij->i', d.F, optimize=False)\n"
              "def train(p, F):\n    return np.matmul(F, p.w), grad_params(p, F)\n")
    assert blas_in_scoring(source) == ["line 3: @", "line 5: einsum", "line 8: @",
                                       "line 9: _forward_trace", "line 9: tensordot",
                                       "line 11: dot"]


def test_scoring_makes_no_blas_call():
    assert blas_in_scoring((SRC / "calibrator.py").read_text()) == []
