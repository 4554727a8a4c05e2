"""Source hygiene of the package, read with ``ast`` alone: no unused
module-level import, no function-local import that neither the one import
cycle nor a numpy-free start-up needs, and no private module-level name that
nothing in the package refers to."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symlab"
MODULES = sorted(SRC.glob("*.py"))

# catalog's errata checks run the solver, and the solver builds on catalog
# models: the solver imports catalog at module level and catalog imports the
# solver inside a function, so the catalog build leaves the solver unloaded.
# numpy and dynamics load only where verify's numeric check and simulate need
# them, and cli loads the solver only in `solve`; tests/test_startup.py checks
# that nothing else loads numpy, and that verify and export leave the solver
# unloaded
ALLOWED_LOCAL = {
    ("catalog", "solver"),  # the import cycle
    ("cli", "solver"),  # only solve runs the solver: verify and export skip compiling it
    ("geometry", "numpy"),  # deferred for start-up
    ("emfield", "numpy"),  # deferred for start-up
    ("cli", "numpy"),  # deferred for start-up
    ("cli", "dynamics"),  # deferred for start-up
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _bound_names(node):
    """Names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _local_imports(tree):
    """(line, imported module) of every import below module level, including
    calls to ``__import__``; ``from . import x`` imports the module ``x``."""
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module is None
            ):
                out.extend((node.lineno, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                out.append((node.lineno, node.module))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "__import__"
            ):
                out.append((node.lineno, "__import__"))
    return sorted(set(out))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_level_import(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _exported(tree)
    unused = [
        (node.lineno, name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
        if name not in used and name not in exported
    ]
    assert unused == []


def test_local_imports_name_each_module():
    tree = ast.parse("def f():\n    from . import x\n    from .y import z\n    import numpy\n")
    assert _local_imports(tree) == [(2, "x"), (3, "y"), (4, "numpy")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_local_imports_only_break_the_catalog_solver_cycle(path):
    stray = [
        (line, module)
        for line, module in _local_imports(_tree(path))
        if (path.stem, module) not in ALLOWED_LOCAL
    ]
    assert stray == []


def _private_definitions(tree):
    """(statement index, line, name) of every module-level function, class or
    assignment whose name starts with one underscore."""
    for k, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield k, node.lineno, name


def _referrers():
    """name -> the (module, top-level statement index) pairs that read it, as
    a name or as an attribute."""
    out = {}
    for path in MODULES:
        for k, stmt in enumerate(_tree(path).body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                out.setdefault(name, set()).add((path.stem, k))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_private_names_are_referenced(path):
    """A private helper that only its own definition reads is an orphan."""
    referrers = _referrers()
    orphans = [
        (line, name)
        for k, line, name in _private_definitions(_tree(path))
        if not referrers.get(name, set()) - {(path.stem, k)}
    ]
    assert orphans == []
