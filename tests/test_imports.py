"""Source hygiene: every top-level import in the package is used, and
importing the CLI loads no process-pool machinery."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_no_process_pool_modules():
    """Only `dse --level system` starts a process pool, and it imports one
    itself, so `simulate`, `dataflow` and `gen-trace` never load it."""
    code = ("import sys, lamosim.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
