"""The README's library example imports only names the package exports."""

import ast
import re
from pathlib import Path

import causalprox

README = Path(__file__).resolve().parent.parent / "README.md"


def library_imports(text: str) -> list:
    """Names of the `from causalprox import (...)` statements in the first
    python code block under the `## Library` heading."""
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "causalprox"
        for alias in node.names
    ]


def test_readme_library_block_imports_resolve():
    names = library_imports(README.read_text(encoding="utf-8"))
    assert len(names) > 10
    missing = [name for name in names if not hasattr(causalprox, name)]
    assert not missing, f"README imports names causalprox does not export: {missing}"
