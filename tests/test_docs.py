"""The README's module map names only what the modules really define,
and its command-line block is the usage text the CLI prints."""

import importlib
import re
from pathlib import Path

import pytest

from ptwalk import cli

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
