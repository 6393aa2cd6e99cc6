"""Source hygiene of the package, checked with the standard ``ast`` module:
no module imports a name it never uses, every private module-level name
is referenced somewhere in the package, and every public module constant,
class field and property is read somewhere in the package, its tests or
the benchmark.  A field or property counts as read only through an
attribute (``obj.name``), so a local variable of the same name cannot
hide it.  All three catch what a deletion leaves behind.  No module
imports scipy.optimize, at module level or deferred, and ``import
ptwalk`` in a fresh interpreter leaves it unloaded: it would add about
17 MB and 0.1 s to every run, for jobs scipy.sparse.csgraph does."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ptwalk"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}
READERS = [ast.parse(path.read_text(encoding="utf-8"))
           for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
           for path in sorted(folder.glob("*.py"))]


def used_names(tree: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported from elsewhere."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def imported_names(tree: ast.Module) -> list[str]:
    """The names an import binds in the module, ``__future__`` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    return bound


def assigned_names(node: ast.stmt) -> list[str]:
    """The plain names an assignment statement binds, if it is one."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        names += assigned_names(node)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def is_property(node: ast.stmt) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
        in ("property", "cached_property") for d in node.decorator_list)


def public_constants(tree: ast.Module) -> list[str]:
    names = [n for node in tree.body for n in assigned_names(node)]
    return [n for n in names if not n.startswith("_")]


def public_members(tree: ast.Module) -> list[str]:
    """The fields and properties of public classes."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                names += assigned_names(item)
                if is_property(item):
                    names.append(item.name)
    return [n for n in names if not n.startswith("_")]


def loaded_attributes(tree: ast.AST) -> set[str]:
    """Attributes read; storing into one is not a use."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def loaded_names(tree: ast.AST) -> set[str]:
    """Bare names read, as a module constant may be after an import."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__.py"])
def test_no_unused_import(module):
    tree = TREES[module]
    reads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    assert [name for name in imported_names(tree) if name not in reads] == []


def test_every_private_name_is_referenced():
    used = set().union(*(used_names(tree) for tree in TREES.values()))
    unused = [f"{module}:{name}" for module, tree in TREES.items()
              for name in private_definitions(tree) if name not in used]
    assert unused == []


def test_every_public_attribute_is_read():
    attributes = set().union(*map(loaded_attributes, READERS))
    names = attributes.union(*map(loaded_names, READERS))
    unread = [f"{module}:{name}" for module, tree in TREES.items()
              for name in public_constants(tree) if name not in names]
    unread += [f"{module}:{name}" for module, tree in TREES.items()
               for name in public_members(tree) if name not in attributes]
    assert unread == []


def imported_modules(tree: ast.AST) -> set[str]:
    """Every module an import statement names, ``from`` names included."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}"
                           for alias in node.names)
    return modules


def is_optimize(module: str) -> bool:
    return module.split(".")[:2] == ["scipy", "optimize"]


def test_no_module_imports_scipy_optimize():
    found = [f"{module}:{name}" for module, tree in TREES.items()
             for name in sorted(imported_modules(tree)) if is_optimize(name)]
    assert found == []


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, ptwalk; print(*sorted(sys.modules), sep='\\n')"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}).stdout
    assert [m for m in loaded.split() if is_optimize(m)] == []
    assert "scipy.sparse.csgraph" in loaded.split()


def test_import_leaves_the_process_pool_unloaded():
    # the pool's modules load on the first pooled call; the bare
    # concurrent.futures package is already loaded by numpy.testing,
    # which scipy.linalg imports
    code = "import sys, ptwalk; print(*sorted(sys.modules), sep='\\n')"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}).stdout
    pool = [m for m in loaded.split()
            if m.split(".")[0] == "multiprocessing"
            or m == "concurrent.futures.process"]
    assert pool == []
    assert "ptwalk._pool" in loaded.split()
