"""Every name a package module imports is used in that module, and every
private module-level name is referenced somewhere in the package.

No linter ships with the project, so this walks each module's syntax
tree: the names bound by its import statements must each appear as a
name somewhere in its code (an annotation counts, a string does not).
`__init__.py` is skipped because its imports are re-exports, and so are
`from __future__` imports.  A module-level function, class or constant
whose name starts with one underscore must be read by some package
module: as a name, as an attribute or in an import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "causalprox"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "def f(x: np.ndarray) -> str:\n"
        "    return dumps(os.path.join(x))\n"
    )
    assert unused_imports(source) == [(4, "loads")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(module):
    unused = unused_imports(module.read_text())
    assert not unused, f"{module.name}: unused imports {unused}"


def private_definitions(source: str) -> dict:
    """Private module-level functions, classes and constants: name -> line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def referenced_names(source: str) -> set:
    """Names a module reads, looks up as attributes or imports."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_private(sources: dict) -> list:
    """(module, line, name) of private names that no module references."""
    used = set().union(*map(referenced_names, sources.values()))
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in used
    )


def test_private_detector_flags_only_unreferenced_names():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_UNUSED = 2\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Gone:\n"
            "    _attr = 0\n"
            "def _other():\n"
            "    pass\n"
        ),
        "b.py": "from .a import _helper\n",
        "c.py": (
            "from . import a\n"
            "_x, _y = a._other, 0\n"
            "__all__ = [_y]\n"
            "def __getattr__(name):\n"
            "    pass\n"
        ),
    }
    assert unreferenced_private(sources) == [
        ("a.py", 2, "_UNUSED"),
        ("a.py", 5, "_Gone"),
        ("c.py", 2, "_x"),
    ]


def test_package_has_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in ALL_MODULES}
    unused = unreferenced_private(sources)
    assert not unused, f"private names no package module references: {unused}"
