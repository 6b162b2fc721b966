"""Dead-code guard over the package source, by its syntax tree alone.

Two kinds of leftovers fail it: a name a module imports but never reads
(the package ``__init__`` re-exports, so it is exempt), and a
module-level private name (``_x``) that no module of the package reads.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rotor_gpe").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _imported(tree):
    """Names a module binds by import, with the line that binds them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _loaded(tree):
    """Names a module reads as variables."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _read(tree):
    """Names a module reads: as variables, as attributes, or by importing them."""
    read = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _private_definitions(tree):
    """Module-level ``_x`` names a module defines (not dunders), with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_the_guard_sees_the_whole_package():
    assert {"__init__.py", "grid.py", "propagator.py", "solver.py", "cli.py"} <= set(TREES)


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_every_imported_name_is_read(module):
    tree = TREES[module]
    loaded = _loaded(tree)
    unread = [f"{name} (line {line})" for name, line in _imported(tree) if name not in loaded]
    assert not unread, f"{module} imports names it never reads: {unread}"


def test_every_private_module_name_is_read_somewhere():
    read = set().union(*(_read(tree) for tree in TREES.values()))
    unread = [
        f"{module}: {name} (line {line})"
        for module, tree in TREES.items()
        for name, line in _private_definitions(tree)
        if name not in read
    ]
    assert not unread, f"private names nothing reads: {unread}"
