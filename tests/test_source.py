import ast
from pathlib import Path

import troplog

SOURCES = sorted(Path(troplog.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # Checks must survive ``python -O``, which strips assert statements.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


def test_oracles_import_no_private_names():
    # An oracle that borrows the library's private helpers checks the
    # library against itself.
    path = Path(__file__).with_name("oracles.py")
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "troplog"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found
