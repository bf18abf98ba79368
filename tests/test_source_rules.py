"""Rules on the program's source text."""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).parent.parent / "src" / "floermini"


def test_no_assert_statements():
    """Runtime invariants raise typed errors: an assert vanishes under
    `python -O`."""
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources, f"no sources under {SOURCE_DIR}"
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert not found, f"assert statements (file: lines): {found}"
