"""Static checks of the sources.

The library checks its invariants with raises: `python -O` strips assert.
No module, library or test, imports a name it never uses.  Every public
name in qdosc.__all__ is defined by the package, once.
"""

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


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "annotations":  # from __future__ import annotations
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is left out
    library = [p for p in Path(qdosc.__file__).parent.glob("*.py")
               if p.name != "__init__.py"]
    found = []
    for path in sorted(library + list(Path(__file__).parent.glob("*.py"))):
        found += _unused_imports(path)
    assert found == []


def test_every_public_name_resolves_once():
    # nothing else runs `from qdosc import *`, which a name left in __all__
    # but dropped from the imports would break
    assert len(set(qdosc.__all__)) == len(qdosc.__all__)
    namespace = {}
    exec("from qdosc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qdosc.__all__)
