"""Source hygiene: every top-level import in the package is used, every
config field is read by a model, and importing the CLI loads no process-pool
machinery but every module the benchmark's tracer wraps."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import lamosim
from lamosim.hwspec import (
    AreaConsts,
    ChipletSpec,
    CoolingSpec,
    DramStackSpec,
    FlowLevel,
    Infeasible,
    ModelSpec,
    PeSpec,
    PowerConsts,
    SystemSpec,
)

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


def attribute_reads(source: str) -> set[str]:
    """Attribute names the module reads, outside every `__post_init__`."""
    reads: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return reads


CONFIG_SPECS = (DramStackSpec, PeSpec, ChipletSpec, AreaConsts, PowerConsts,
                FlowLevel, CoolingSpec, SystemSpec, ModelSpec)

# Config fields that no model reads, each with the reason it stays.
UNREAD_FIELDS_KEPT = {
    "ModelSpec.name": "a label naming the model; no result depends on it",
    "ModelSpec.attn_variant": "checked against n_kv_heads at parse, where "
                              '"mla", which no cost model implements, exits 2',
}


def test_attribute_reads_detector():
    src = ("class A:\n"
           "    def __post_init__(self):\n"
           "        assert self.x > 0\n"
           "    def f(self):\n"
           "        self.z = 1\n"
           "        return self.y\n")
    assert attribute_reads(src) == {"y"}


def test_every_config_field_is_read_by_a_model():
    """A config value the models do not read would be accepted and ignored.
    Validation (`__post_init__`) and the CLI's output writers do not count
    as reads."""
    reads = set().union(*(attribute_reads(p.read_text())
                          for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"))
    unread = [f"{tp.__name__}.{f.name}" for tp in CONFIG_SPECS
              for f in dataclasses.fields(tp)
              if f.name not in reads and f"{tp.__name__}.{f.name}" not in UNREAD_FIELDS_KEPT]
    assert unread == []


def modules_after_cli_import() -> list[str]:
    """The modules a fresh interpreter holds after `import lamosim.cli`."""
    code = "import json, sys, lamosim.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_cli_import_loads_no_process_pool_modules():
    """Only `dse --level system` starts a process pool, and it imports one
    itself, so `simulate`, `dataflow` and `gen-trace` never load it."""
    assert [m for m in modules_after_cli_import()
            if m.startswith(("multiprocessing", "concurrent"))] == []


def test_cli_import_loads_every_traced_module():
    """The benchmark's tracer (bench/tracer.py) wraps the functions its SPANS
    name in the modules `import lamosim.cli` has loaded, so a module that
    import leaves out reads there as a renamed function."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", SRC.parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {mod for targets in tracer.SPANS.values() for mod, _ in targets}
    assert traced
    assert sorted(traced - set(modules_after_cli_import())) == []


def test_infeasible_types_are_the_reviewed_seven():
    """The CLI exits 3 on any `Infeasible`, and the system DSE rejects a design
    on one, so a new subclass changes both; listing them makes that reviewed."""
    import lamosim.cli  # noqa: F401  loads every module that defines one

    todo, names = [Infeasible], []
    while todo:
        subs = todo.pop().__subclasses__()
        names += [c.__name__ for c in subs]
        todo += subs
    assert sorted(names) == ["CapacityExceeded", "EmptyGroup", "KvOverflow",
                             "NoFeasibleMapping", "RefreshStall", "SystemValidationError",
                             "TooManyStages"]
