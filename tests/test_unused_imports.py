"""Every name a package module imports is used in that module.

No linter ships with the project, so this walks each module's syntax
tree: the names bound by its import statements must each appear as a
name somewhere in its code (an annotation counts, a string does not).
`__init__.py` is skipped because its imports are re-exports, and so are
`from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "causalprox"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
