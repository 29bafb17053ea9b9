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


# Top-level definitions that only the tests use, as oracles: a graph replay
# and an expression parser.
TEST_ORACLES = {("harness.py", "replay_graph"),
                ("syntax.py", "parse_expression")}


def referenced_names(node):
    """The names a statement reads, as a bare name, an attribute or an
    import from another module."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def test_every_top_level_definition_is_used():
    # each top-level function and class is named somewhere in the package
    # outside its own definition, re-exports in __init__ included
    package = sorted(Path(miniscp.__file__).parent.glob("*.py"))
    statements = [(path.name, stmt, set(referenced_names(stmt)))
                  for path in package
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    unused = {(module, stmt.name) for module, stmt, _ in statements
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not any(stmt.name in names
                          for _, other, names in statements
                          if other is not stmt)}
    assert unused == TEST_ORACLES


def write_mode(call):
    """Whether a call of `open` or `fdopen` may write: its mode names a
    write, or is not a literal."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if not isinstance(mode, ast.Constant):
        return True
    return bool(set(mode.value) & set("wax+"))


def test_no_file_is_opened_to_write_but_by_the_one_writer():
    # opening a file to write truncates it (or appends), and truncating
    # frees its blocks; `cli._write_text` overwrites in place instead
    writes, creates = [], []
    for path in sorted(Path(miniscp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef)]
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if ast.unparse(func) == "os.open":
                flags = {n.attr for n in ast.walk(call.args[1])
                         if isinstance(n, ast.Attribute)}
                if "O_CREAT" in flags:
                    creates.append((path.name, [
                        f.name for f in functions
                        if f.lineno <= call.lineno <= f.end_lineno]))
            elif (name in ("open", "fdopen") and write_mode(call)
                    or name in ("write_text", "write_bytes")):
                writes.append((path.name, call.lineno))
    assert writes == []
    assert creates == [("cli.py", ["_write_text"])]
