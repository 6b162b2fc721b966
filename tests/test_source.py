"""Dead-code guard over the package source, by its syntax tree alone.

Four kinds of leftovers fail it: a name a module imports but never reads
(the package ``__init__`` re-exports, so it is exempt), a module-level
private name (``_x``) that no module of the package reads, a defaulted
parameter of a package function that no call in the package, its tests
or its benchmark passes, and a public name (in a module's ``__all__``)
that neither the package, the acceptance battery nor the benchmark reads
and that is no listed reference.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rotor_gpe").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
#: Every module whose calls may pass a package function's parameter.
CALLERS = [
    ast.parse(path.read_text(encoding="utf-8"))
    for folder in ("src/rotor_gpe", "tests", "perfbench")
    for path in sorted((ROOT / folder).glob("*.py"))
]
#: Files outside the package whose reads keep a public name: the
#: acceptance battery and the benchmark.
CLIENTS = [
    ast.parse(path.read_text(encoding="utf-8"))
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
]
#: Public names that only the unit tests read, each a reference that a
#: test checks the program, or a closed form, against.
REFERENCES = {
    "chirp_pair": "the chirps M(t), Q(t) of the factorized J and H, checked unimodular and singular at 0",
    "galilean_momentum_chirped": "J(t) through the tangent chirp, a second route to galilean_momentum",
    "galilean_position_chirped": "H(t) through the cotangent chirp, a second route to galilean_position",
    "generator_expectation": "the Rayleigh quotient of the brute-force generator, the states' eigenvalues",
    "nonlinear_phase": "N(tau) into a fresh field, the allocating replay of evolve's in-place phase",
}


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


def _defaulted_parameters(tree):
    """``(function, parameter, position, line)`` of every defaulted parameter.

    ``position`` is the parameter's index among a call's positional
    arguments (a method's ``self`` or ``cls`` not counted), or None for a
    keyword-only parameter.
    """
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = isinstance(parent, ast.ClassDef) and any(
                arg.arg in ("self", "cls") for arg in positional[:1]
            )
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                yield node.name, positional[i].arg, i - bound, node.lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None, node.lineno


def _passed():
    """``{(callee name, parameter or position)}`` over every call of :data:`CALLERS`.

    A callee is named by its last attribute, so a call through a module
    or an instance counts.  ``*args`` passes every position and
    ``**kwargs`` every keyword, written as ``"*"`` and ``"**"``.
    """
    passed = set()
    for tree in CALLERS:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            for i, arg in enumerate(node.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
            for keyword in node.keywords:
                passed.add((name, keyword.arg or "**"))
    return passed


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


def test_every_defaulted_parameter_is_passed_somewhere():
    passed = _passed()
    unpassed = [
        f"{module}: {function}({parameter}) (line {line})"
        for module, tree in TREES.items()
        for function, parameter, position, line in _defaulted_parameters(tree)
        if not {(function, parameter), (function, "**"), (function, "*")} & passed
        and (position is None or (function, position) not in passed)
    ]
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def _public(tree):
    """The names a module spells out in its ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


def _client_reads(tree):
    """Package names a file reads: imported by name, or as ``module.name``.

    A name counts only where it comes from ``rotor_gpe``, so a local
    ``mass`` or a record's ``.mass`` does not read a function ``mass``.
    """
    modules = {path.stem for path in SOURCES}
    bound, read = {"rotor_gpe"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname for a in node.names if a.asname and a.name.startswith("rotor_gpe."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rotor_gpe")):
            read.update(alias.name for alias in node.names)
            bound.update(alias.asname or alias.name for alias in node.names if alias.name in modules)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            if owner in bound:
                read.add(node.attr)
    return read


def test_every_public_name_has_a_reader_or_is_a_listed_reference():
    reads = {module: _client_reads(tree) for module, tree in TREES.items()}
    outside = set().union(*(_client_reads(tree) for tree in CLIENTS))
    unread = [
        f"{module}: {name}"
        for module, tree in TREES.items()
        for name in _public(tree)
        if name not in REFERENCES
        and name not in outside
        and not any(name in read for other, read in reads.items() if other != module)
        and name not in _loaded(tree)
    ]
    assert not unread, f"public names only unit tests read: {unread}"
    listed = {name for tree in TREES.values() for name in _public(tree)}
    assert set(REFERENCES) <= listed, "a listed reference is no public name"
