"""Guards over the package source itself."""

import ast
from pathlib import Path

import treewindow

SOURCES = sorted(Path(treewindow.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    """Guarantees are explicit InvariantError raises, which hold under
    python -O; an assert statement would vanish there."""
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
