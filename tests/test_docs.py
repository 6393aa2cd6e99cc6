"""The README's module map names only what the modules really define,
its command-line block is the usage text the CLI prints, the walk keys
it names are keys the CLI reads, the solver labels it lists are the
ones ``eigendecompose`` can return, its structure table names the
window of each structure, and its "Worker processes" bullet names
every function that calls the fork pool."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from ptwalk import cli, spectrum

README = Path(__file__).resolve().parents[1] / "README.md"
MAP_ROW = re.compile(r"^\| `(ptwalk\.\w+)` \| (.*) \|$")


def module_map_entries(text: str) -> list[tuple[str, str]]:
    """(module, name) for every backticked identifier in the map table."""
    rows = filter(None, (MAP_ROW.match(line) for line in text.splitlines()))
    return [(row[1], name) for row in rows
            for name in re.findall(r"`(\w+)`", row[2])]


TEXT = README.read_text(encoding="utf-8")
ENTRIES = module_map_entries(TEXT)


def test_map_covers_every_module():
    assert {module for module, _ in ENTRIES} == {
        "ptwalk.operators", "ptwalk.bulk", "ptwalk.spectrum",
        "ptwalk.perturbation", "ptwalk.dynamics", "ptwalk.errors"}


@pytest.mark.parametrize("module,name", ENTRIES,
                         ids=[f"{m}.{n}" for m, n in ENTRIES])
def test_named_identifier_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_usage_block_is_cli_usage():
    # the first fenced block of the "Command line" section
    block = TEXT.split("\n## Command line\n", 1)[1].split("```\n")[1]
    assert block == cli.USAGE


# every key _walk_spec reads, for a kind and layout that read them all
FULL_WALK = {
    "kind": "three_step_perturbed_disordered", "num_sites": "41",
    "layout": "inner_outer", "theta1_a_over_pi": "0.4",
    "theta2_a_over_pi": "0.1", "theta1_b_over_pi": "-0.6",
    "theta2_b_over_pi": "0.2", "half_width": "10", "gamma": "0.1",
    "delta": "0.05", "disorder_amplitude": "0.1", "disorder_seed": "3",
}


def test_optional_walk_keys_are_read():
    # _walk_spec rejects a key it does not read, and resolves one it
    # reads whether given or not; the manifest adds the ring's constants
    _, params = cli._walk_spec({"walk": FULL_WALK})
    assert set(params) == set(FULL_WALK) | {"boundary", "x_min"}
    sentence = re.search(r"Optional walk keys:(.*?)\.\s", TEXT, re.S)[1]
    keys = re.findall(r"`(\w+)`", sentence)
    assert keys and set(keys) <= set(FULL_WALK)


def solver_labels(tree: ast.AST) -> set[str]:
    """String constants in the value of every assignment to a ``solver``
    name or attribute, the first target of a tuple included."""
    labels = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Tuple):
                target = target.elts[0]
            if getattr(target, "id", getattr(target, "attr", None)) == "solver":
                labels.update(sub.value for sub in ast.walk(node.value)
                              if isinstance(sub, ast.Constant)
                              and isinstance(sub.value, str))
    return labels


def test_solver_labels_are_the_returned_ones():
    source = Path(spectrum.__file__).read_text(encoding="utf-8")
    code = solver_labels(ast.parse(source))
    code |= {label for label, _ in spectrum._WINDOWS.values()}
    sentence = re.search(r"`result\.solver` is one of(.*?)\.\s", TEXT, re.S)[1]
    readme = re.findall(r'`"([\w-]+)"`', sentence)
    assert len(readme) == len(set(readme))
    assert set(readme) == code == {"orthogonal", "pt-fold", "dense",
                                   "interface-fold", "interface-mu",
                                   "interface"}


def test_structure_table_windows_are_the_window_table():
    header = "| structure | when | relation | whole spectrum | window |\n"
    table = TEXT.split(header, 1)[1].split("\n\n", 1)[0]
    rows = [line.strip("|").split(" | ") for line in table.splitlines()[1:]]
    assert [(row[0].strip(), row[-1].strip(" `")) for row in rows] == [
        (structure, label)
        for structure, (label, _) in spectrum._WINDOWS.items()]


class PoolCallers(ast.NodeVisitor):
    """Names of the functions whose own body calls ``ordered_map``; a
    call in a nested function counts for the nested one."""

    def __init__(self):
        self.stack, self.found = [], set()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "ordered_map" and self.stack:
            self.found.add(self.stack[-1])
        self.generic_visit(node)


def pool_callers() -> set[str]:
    visitor = PoolCallers()
    for path in Path(spectrum.__file__).parent.glob("*.py"):
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.found


def test_worker_processes_names_every_pool_caller():
    bullet = re.search(r"- \*\*Worker processes\.\*\*(.*?)\n\n", TEXT, re.S)[1]
    named = set(re.findall(r"`(?:\w+\.)*(\w+)`", bullet))
    callers = pool_callers()
    assert {"_window", "edge_count_map", "infer_edge_count"} <= callers
    assert callers <= named
