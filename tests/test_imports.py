"""Every module of the package and of the tests reads each name it imports,
and every top-level function, class and assigned name of the package, and
every method of its classes, dunder names aside, is read somewhere.

A name counts as imported-and-read when the module loads it anywhere, at any
scope, as a bare name or as the base of an attribute chain. `from __future__`
imports and the package's re-exports in `womctl/__init__.py` are not checked.
A definition counts as read when any module of the package, the tests or the
bench other than `womctl/__init__.py` loads its name, bare or as an
attribute, or when the bench tracer's `TRACED` table names it; a method
counts by its own name, whatever object it is read from.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted(
    path for path in (ROOT / "src" / "womctl").glob("*.py") if path.name != "__init__.py"
)
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = sorted([*MODULES, *(ROOT / "bench").rglob("*.py")])


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


def read_names(source: str) -> set[str]:
    """The names `source` loads anywhere, as bare names or as attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store)
    }


def traced_names(source: str) -> set[str]:
    """Every part of every attribute path in the `TRACED` table of `source`."""
    for node in ast.parse(source).body:
        if "TRACED" in [getattr(target, "id", None) for target in getattr(node, "targets", [])]:
            paths = [path for _, path in ast.literal_eval(node.value).values()]
            return {part for path in paths for part in path.split(".")}
    return set()


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """The top-level functions, classes and names bound by assignment of
    `source` and the methods of its classes, dunder names aside, not in
    `read`, in order; a method is named `Class.method`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for node in ast.parse(source).body:
        if isinstance(node, (*functions, ast.ClassDef)) and node.name not in read:
            unread.append(node.name)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            unread += [
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name) and name.id not in read and not _dunder(name.id)
            ]
        if isinstance(node, ast.ClassDef):
            unread += [
                f"{node.name}.{method.name}" for method in node.body
                if isinstance(method, functions) and method.name not in read
                and not _dunder(method.name)
            ]
    return unread


def test_unread_definitions_are_found():
    module = (
        "__all__ = []\n"
        "LIMIT = 3\n"
        "_SPARE, (READ_TOO, _LEFT) = 1, (2, 3)\n"
        "table: dict = {}\n"
        "def called(): pass\n"
        "def as_attribute(): pass\n"
        "class Traced:\n"
        "    def method(self): pass\n"
        "class Unread: pass\n"
        "def stored(): pass\n"
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def _dead(self): pass\n"
        "    def assigned(self): pass\n"
    )
    reader = (
        "import m\ncalled()\nm.as_attribute\nstored = 1\nm.stored = 2\nm.LIMIT\nREAD_TOO\n"
        "k = m.Kept()\nk.used()\nk.assigned = 3\n"
    )
    spans = 'TRACED = {"layer": ("m", "Traced.method")}\nOTHER = {"x": ("m", "Unread")}\n'
    read = read_names(reader) | traced_names(spans)
    assert unread_definitions(module, read) == [
        "_SPARE", "_LEFT", "table", "Unread", "stored", "Kept._dead", "Kept.assigned",
    ]


def test_every_definition_is_read():
    read = set().union(*(read_names(path.read_text(encoding="utf-8")) for path in READERS))
    read |= traced_names((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    unread = [
        f"{path.name}:{name}"
        for path in PACKAGE
        for name in unread_definitions(path.read_text(encoding="utf-8"), read)
    ]
    assert unread == []


def test_a_comparison_leaves_numpy_ma_unloaded():
    # a plain `np.unique` calls `np.ma.is_masked`, and its first call imports numpy.ma
    code = (
        "import sys\n"
        "from womctl.instances import load_d2\n"
        "from womctl.solver import compare_agents\n"
        "compare_agents(load_d2())\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert run.stdout.split() == ["False"]
