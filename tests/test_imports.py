"""Every module of the package and of the tests reads each name it imports.

A name counts as read when the module loads it anywhere, at any scope, as a
bare name or as the base of an attribute chain. `from __future__` imports
and the package's re-exports in `womctl/__init__.py` are not checked.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "womctl").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path != ROOT / "src" / "womctl" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from math import pi, tau as turn\n"
        "def f():\n"
        "    import json\n"
        "    return numpy.linalg.norm(pi)\n"
    )
    assert unused_imports(source) == ["os", "osp", "turn", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
