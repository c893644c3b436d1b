"""Every module under src/roconvex (but the package's __init__, which re-exports)
and every test module uses each name it imports, every module under
src/roconvex reads each private name it defines at module level, every method
a class under src/roconvex defines is read by src/roconvex or bench, every
module-level array under src/roconvex is read-only, and no module under
src/roconvex imports a private numpy module but the one LAPACK kernel module."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "roconvex").glob("*.py") if p.name != "__init__.py")
MODULES = sorted(SOURCES + list((ROOT / "tests").glob("*.py")))
BENCH = sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def unused_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_privates(source: str) -> list[str]:
    """The _private functions, classes and constants a module defines at top
    level and never reads outside their own definition, in definition order."""
    tree = ast.parse(source)
    defined = []
    read = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        defined += [n for n in names if n.startswith("_") and not n.startswith("__")]
        loads = (n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        read.update(n for n in loads if n not in names)
    return [name for name in defined if name not in read]


def test_the_check_sees_an_unread_private_name():
    source = (
        "_USED = 1\n_UNUSED: int = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1) + _USED\n"
        "class _Helper:\n    pass\n"
        "def public():\n    return _Helper()\n"
    )
    assert unread_privates(source) == ["_UNUSED", "_recursive"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_private_name_it_defines(path):
    assert unread_privates(path.read_text()) == []


def unread_methods(sources: list[str], readers: list[str]) -> list[str]:
    """The methods (but dunders) that classes in `sources` define and that no live
    code reads, as Class.method in definition order. Code is live unless it is the
    body of an unread method; a read is an attribute, or the last part of a dotted
    string such as "SampledField.interpolate"."""
    trees = [ast.parse(s) for s in sources]
    methods = {
        f"{cls.name}.{fn.name}": fn
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("__")
    }
    bodies = set(methods.values())

    def reads(root: ast.AST) -> set[str]:
        names, stack = set(), list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if all(part.isidentifier() for part in node.value.split(".")):
                    names.add(node.value.rpartition(".")[2])
            stack += [c for c in ast.iter_child_nodes(node) if c not in bodies]
        return names

    live = set().union(*(reads(tree) for tree in trees + [ast.parse(s) for s in readers]))
    grown = True
    while grown:  # a live method's body is live code
        more = set().union(*(reads(fn) for fn in methods.values() if fn.name in live))
        grown = not more <= live
        live |= more
    return [name for name, fn in methods.items() if fn.name not in live]


def test_the_check_sees_an_unread_method():
    source = (
        "class A:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return 1\n"
        "    def unread(self):\n        return self.only_from_unread()\n"
        "    def only_from_unread(self):\n        return self.unread()\n"
        "    def named(self):\n        return 2\n"
        "A()\n"
    )
    assert unread_methods([source], ['TARGETS = ("A.named",)\n']) == ["A.unread", "A.only_from_unread"]


def test_every_method_is_read_by_the_library_or_the_benchmark():
    # fd_gradient is the finite-difference reference every exact gradient is tested against
    unread = unread_methods([p.read_text() for p in SOURCES], [p.read_text() for p in BENCH])
    assert [name for name in unread if name != "FunctionHandle.fd_gradient"] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_level_arrays_are_read_only(path):
    # a shared grid written through by one caller would silently change every later fit
    module = importlib.import_module(f"roconvex.{path.stem}")
    writable = [name for name, v in vars(module).items() if isinstance(v, np.ndarray) and v.flags.writeable]
    assert writable == []


# The one private numpy module src may import, and where: numpy's gesv gufuncs,
# which paraboloid calls without np.linalg.solve's Python wrapper.
PRIVATE_NUMPY_ALLOWED = {"paraboloid.py": {"numpy.linalg._umath_linalg"}}


def private_numpy_imports(source: str) -> list[str]:
    """The dotted names a module imports from numpy with a private part after
    `numpy`, such as numpy._core or numpy.linalg._umath_linalg."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [f"{node.module}.{a.name}" for a in node.names]
    return [
        name for name in names
        if name.split(".")[0] == "numpy" and any(part.startswith("_") for part in name.split(".")[1:])
    ]


def test_the_check_sees_a_private_numpy_import():
    source = (
        "import numpy as np\nimport numpy._core.multiarray\nfrom numpy import linalg, _core\n"
        "from numpy.linalg import _umath_linalg\nfrom numpy.lib._index_tricks_impl import r_\n"
    )
    found = private_numpy_imports(source)
    assert sorted(found) == [
        "numpy._core",
        "numpy._core.multiarray",
        "numpy.lib._index_tricks_impl.r_",
        "numpy.linalg._umath_linalg",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_imports_no_private_numpy_module_but_the_gesv_kernel(path):
    allowed = PRIVATE_NUMPY_ALLOWED.get(path.name, set())
    assert [name for name in private_numpy_imports(path.read_text()) if name not in allowed] == []
