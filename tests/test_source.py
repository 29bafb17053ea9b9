"""Checks on the package's own source text."""

import ast
from pathlib import Path

import pytest

import miniscp

MODULES = sorted(p for p in Path(miniscp.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """The names bound by the module's top-level imports, but `__future__`
    features."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in imported_names(tree) if n not in used] == []
