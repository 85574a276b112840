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
from collections import defaultdict
from enum import Enum
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


def test_no_two_enums_share_a_value_set():
    """One type per concept: an enum whose values repeat another's is a second
    name for the same thing, and callers end up passing both. A module may
    bind another module's enum under a second name; classes count once each."""
    modules = [importlib.import_module(f"lamosim.{p.stem}")
               for p in SRC.glob("*.py") if p.stem != "__main__"]  # __main__ runs the CLI
    classes = {id(obj): obj for mod in modules for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, Enum)
               and obj.__module__.startswith("lamosim.")}
    by_values = defaultdict(list)
    for cls in classes.values():
        by_values[frozenset(m.value for m in cls)].append(f"{cls.__module__}.{cls.__name__}")
    assert sorted(sorted(names) for names in by_values.values() if len(names) > 1) == []


def unread_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter of each function or lambda that
    nothing in the function's body reads; methods are named `Class.method`."""
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg) if x is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                reads = {n.id for stmt in body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out.extend(f"{name}.{q}" for q in params if q not in reads)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


# Function parameters that nothing reads, each with the reason it stays.
UNREAD_PARAMS_KEPT = {
    "dataflow.enumerate_tilings.pe": "the tilings depend on the shape alone; "
                                     "tests/test_acceptance.py passes the PE",
    "ops.layer_ops.phase": "the batch alone sets the ops; tests/test_acceptance.py "
                           "passes the phase",
}


def test_unread_parameters_detector():
    src = ("def f(a, b, *c, d=1, **e):\n"
           "    g = lambda x, y: x\n"
           "    return a + d\n"
           "class K:\n"
           "    def m(self, z):\n"
           "        def inner():\n"
           "            return z\n"
           "        return inner\n")
    assert unread_parameters(src) == ["f.b", "f.c", "f.e", "f.<lambda>.y", "K.m.self"]


def test_every_function_parameter_is_read():
    """A parameter nothing reads accepts a value and ignores it."""
    found = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
             for name in unread_parameters(p.read_text())]
    assert sorted(set(found) - set(UNREAD_PARAMS_KEPT)) == []
    assert sorted(set(UNREAD_PARAMS_KEPT) - set(found)) == []
