"""Source hygiene: every top-level import in the package is used."""

from __future__ import annotations

import ast
from pathlib import Path

import lamosim

SRC = Path(lamosim.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_detector():
    assert unused_imports("import math\nimport os\nos.sep\n") == ["math"]
    assert unused_imports("from a import b as c\nx: c\n") == []


def test_no_unused_top_level_imports():
    found = {p.name: unused_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
