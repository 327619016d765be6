"""The library checks its invariants with raises: `python -O` strips assert."""

import ast
from pathlib import Path

import qdosc


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(qdosc.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
