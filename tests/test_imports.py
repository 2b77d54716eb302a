"""No module of upkit imports a name it never uses.

No linter runs on this repository, so an import left behind by a refactor
is caught here: every name bound by an ``import`` in a module of
``src/upkit`` (the package ``__init__`` and ``__future__`` aside) must
occur elsewhere in that module.
"""

import ast
from pathlib import Path

import pytest

import upkit

MODULES = sorted(p for p in Path(upkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_detects_an_unused_import():
    assert _unused_imports("import os\nfrom x import a, b\nprint(a)\n") == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
