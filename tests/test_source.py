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
