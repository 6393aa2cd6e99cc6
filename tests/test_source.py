"""Source hygiene of the package, checked with the standard ``ast`` module:
no module imports a name it never uses, and every private module-level
name is referenced somewhere in the package.  Both catch what a deletion
leaves behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptwalk"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


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


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


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
