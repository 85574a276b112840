"""Traced in-process run of one lamosim CLI command, for per-layer numbers.

    python3 bench/tracer.py --spans DIR -- <lamosim arguments>

Wraps the public functions of each layer in timing spans at every module that
binds them (names are imported by value, so `cli.simulate`, `dse.tp_group`
and the like are patched as well as the defining module), then calls
`lamosim.cli.main(argv)` and writes per-layer metrics as JSON to stdout's last
line. Process-pool workers are forked after the wrappers are installed; each
flushes its spans to DIR/spans-<pid>.jsonl when an outermost span closes, and
spans inside one `evaluate_design` share that design's identifier.

A span's self time is its duration minus the durations of its child spans.
The cost models (`dram`, `compute`, `comm`, `ops`) are not wrapped: they run
about a million times per run inside the searches and stage costs, so the
wrappers would cost more than the work. Their time shows up in the self time
of `dataflow.search` and `serving.simulate`.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (defining module, attribute); "Class.method" patches the class.
SPANS = {
    "cli.cmd": [("lamosim.cli", f) for f in (
        "cmd_dataflow", "cmd_simulate", "cmd_gen_trace", "cmd_dse",
        "cmd_dse_chiplet", "cmd_dse_system")],
    "cli.write": [("lamosim.cli", f"OutDir.{m}") for m in (
        "write_text", "write_json", "write_csv", "finish")]
    + [("lamosim.serving", "write_request_csv"), ("lamosim.serving", "dump_trace_csv")],
    "hwspec.load_validate": [("lamosim.hwspec", f) for f in (
        "parse_system", "parse_model", "validate_system")],
    "serving.load_trace": [("lamosim.serving", "synth_trace"),
                           ("lamosim.serving", "load_trace_csv")],
    "serving.simulate": [("lamosim.serving", "simulate")],
    "serving.roofline_check": [("lamosim.serving", "roofline_check")],
    "dataflow.search": [("lamosim.dataflow", "search")],
    "thermal.coupled_serve": [("lamosim.thermal", "coupled_serve")],
    "thermal.activity_power": [("lamosim.thermal", "activity_power")],
    "thermal.equilibrium": [("lamosim.thermal", "equilibrium")],
    "mapping.tp_group": [("lamosim.mapping", "tp_group")],
    "mapping.place_stages": [("lamosim.mapping", "place_stages")],
    "mapping.build_pd_plan": [("lamosim.mapping", "build_pd_plan")],
    "mapping.estimate_layer_costs": [("lamosim.mapping", "estimate_layer_costs")],
    "dse.search_plan": [("lamosim.dse", "search_plan")],
    "dse.evaluate_design": [("lamosim.dse", "evaluate_design")],
    "dse.system_dse": [("lamosim.dse", "system_dse")],
    "dse.chiplet_dse": [("lamosim.dse", "chiplet_dse")],
}

# What each span records from its call's result, as named counters.
_RESULT_COUNTERS = {
    "dataflow.search": lambda r: {"evaluated": r.evaluated},
    # the logs may leave ServingMetrics; then they count as 0 rows
    "serving.simulate": lambda r: {"tokens": r.total_tokens,
                                   "activity_rows": len(getattr(r, "activity", ())),
                                   "op_log_rows": len(getattr(r, "op_log", ()))},
    "thermal.equilibrium": lambda r: {"iterations": r.iterations},
}

LAYERS = ("cli", "hwspec", "dataflow", "mapping", "serving", "thermal", "dse")


class Tracer:
    """Spans of one process, as rows [id, parent, name, t0, t1, group, counters]."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.main_pid = self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.next_id = 0

    def _open(self, name: str, group: str | None) -> list:
        if os.getpid() != self.pid:  # forked worker: drop the parent's spans
            self.pid = os.getpid()
            self.spans, self.stack = [], []
        parent = self.stack[-1] if self.stack else None
        self.next_id += 1
        span = [f"{self.pid}:{self.next_id}", parent[0] if parent else None, name,
                time.perf_counter(), None,
                group if group is not None else (parent[5] if parent else None), {}]
        self.stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)
        if not self.stack and self.pid != self.main_pid:
            with open(self.spans_dir / f"spans-{self.pid}.jsonl", "a") as f:
                for s in self.spans:
                    f.write(json.dumps(s) + "\n")
            self.spans = []

    def span_wrapper(self, name: str, fn):
        counters = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            group = _design_id(args[0]) if name == "dse.evaluate_design" else None
            span = self._open(name, group)
            try:
                result = fn(*args, **kwargs)
                if counters is not None:
                    span[6].update(counters(result))
                return result
            finally:
                self._close(span)
        return wrapper

    def lut_wrapper(self, fn):
        """Counts memo lookups and hits on the innermost open span."""
        @functools.wraps(fn)
        def wrapper(lut, key, compute):
            hits = lut.hits
            result = fn(lut, key, compute)
            if self.stack and os.getpid() == self.pid:
                c = self.stack[-1][6]
                c["lut_lookups"] = c.get("lut_lookups", 0) + 1
                c["lut_hits"] = c.get("lut_hits", 0) + (lut.hits - hits)
            return result
        return wrapper


def _design_id(point) -> str:
    return f"pc{point.pc}-dc{point.dc}-{point.n_pc}x{point.n_dc}"


def install(tracer: Tracer) -> int:
    """Patch every binding site of every traced function; returns the count."""
    import lamosim.cli  # noqa: F401  imports every layer module
    modules = [m for n, m in sys.modules.items()
               if n == "lamosim" or n.startswith("lamosim.")]
    sites = 0
    for name, targets in SPANS.items():
        for modname, attr in targets:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, tracer.span_wrapper(name, getattr(cls, meth)))
                sites += 1
                continue
            fn = getattr(owner, attr)
            wrapped = tracer.span_wrapper(name, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)
                        sites += 1
    from lamosim.compute import CostLut
    CostLut.get_or_compute = tracer.lut_wrapper(CostLut.get_or_compute)
    return sites


# --- per-layer metrics ------------------------------------------------------------


def layer_metrics(spans: list[list], main_pid: int, jobs: int,
                  main_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the parent and every worker."""
    by_id = {s[0]: s for s in spans}
    child_s: dict[str, float] = defaultdict(float)
    children: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            child_s[s[1]] += s[4] - s[3]
            children[s[1]].append(s)
    self_s = {s[0]: (s[4] - s[3]) - child_s[s[0]] for s in spans}

    def named(name):
        return [s for s in spans if s[2] == name]

    def total_self(name):
        return sum(self_s[s[0]] for s in named(name))

    def total_dur(name):
        return sum(s[4] - s[3] for s in named(name))

    def count(name, key):
        return sum(s[6].get(key, 0) for s in spans if name is None or s[2] == name)

    # coupling round of each serving.simulate under thermal.coupled_serve
    round_of = {}
    for s in named("thermal.coupled_serve"):
        sims = sorted((c for c in children[s[0]] if c[2] == "serving.simulate"),
                      key=lambda c: c[3])
        round_of.update({c[0]: i + 1 for i, c in enumerate(sims)})

    def search_round(s):
        p = by_id.get(s[1])
        while p is not None and p[2] != "serving.simulate":
            p = by_id.get(p[1])
        return round_of.get(p[0], 0) if p is not None else 0

    searches = named("dataflow.search")
    search_s = total_self("dataflow.search")
    lookups = count(None, "lut_lookups")
    sim_self = total_self("serving.simulate")
    workers = [s for s in named("dse.evaluate_design") if not s[0].startswith(f"{main_pid}:")]
    window = (max(s[4] for s in workers) - min(s[3] for s in workers)) if workers else 0.0
    # Layer totals leave out dse.system_dse: in the parent of a process pool its
    # self time is mostly waiting for the workers, whose own spans are counted.
    layer_self = defaultdict(float)
    for s in spans:
        if s[2] != "dse.system_dse":
            layer_self[s[2].split(".")[0]] += self_s[s[0]]
    attributed = sum(self_s[s[0]] for s in spans if s[0].startswith(f"{main_pid}:"))
    metrics = {
        "dataflow.search_s": search_s,
        "dataflow.search_calls": len(searches),
        "dataflow.ms_per_search": 1e3 * search_s / len(searches) if searches else 0.0,
        "dataflow.candidates_evaluated": count("dataflow.search", "evaluated"),
        "dataflow.lut_lookups": lookups,
        "dataflow.lut_hit_ratio": count(None, "lut_hits") / lookups if lookups else 0.0,
        "thermal.rounds": len(round_of),
        "thermal.round2_search_calls": sum(1 for s in searches if search_round(s) >= 2),
        "thermal.equilibrium_s": total_self("thermal.equilibrium"),
        "thermal.equilibrium_iterations": count("thermal.equilibrium", "iterations"),
        "thermal.activity_power_s": total_self("thermal.activity_power"),
        "mapping.tp_group_s": total_self("mapping.tp_group"),
        "mapping.tp_group_calls": len(named("mapping.tp_group")),
        "mapping.place_stages_s": total_self("mapping.place_stages"),
        "mapping.build_pd_plan_s": total_dur("mapping.build_pd_plan"),
        "mapping.estimate_layer_costs_self_s": total_self("mapping.estimate_layer_costs"),
        "dse.search_plan_s": total_dur("dse.search_plan"),
        "dse.search_plan_calls": len(named("dse.search_plan")),
        "dse.evaluate_design_s": total_dur("dse.evaluate_design"),
        "dse.designs_evaluated": len(named("dse.evaluate_design")),
        "dse.parallel_efficiency": (sum(s[4] - s[3] for s in workers) / (jobs * window)
                                    if window > 0 else 0.0),
        "serving.simulate_self_s": sim_self,
        "serving.simulate_calls": len(named("serving.simulate")),
        "serving.sim_tokens_per_self_s": (count("serving.simulate", "tokens") / sim_self
                                          if sim_self > 0 else 0.0),
        "serving.activity_rows": count("serving.simulate", "activity_rows"),
        "serving.op_log_rows": count("serving.simulate", "op_log_rows"),
        "serving.roofline_check_s": total_self("serving.roofline_check"),
        "cli.self_s": total_self("cli.cmd"),
        "cli.write_s": total_self("cli.write"),
        "hwspec.load_validate_s": total_self("hwspec.load_validate"),
        "trace.main_wall_s": main_wall_s,
        "trace.unattributed_s": main_wall_s - attributed,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_self_s"] = layer_self[layer]
    return metrics


def layer_calls(spans: list[list]) -> dict[str, int]:
    """Number of spans per layer, to catch a layer that silently stopped being traced."""
    return {layer: sum(1 for s in spans if s[2].split(".")[0] == layer) for layer in LAYERS}


def design_summary(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per design identifier: inclusive seconds of each span name inside it."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s[5] is not None:
            out[s[5]][s[2]] += s[4] - s[3]
    return {g: dict(v) for g, v in sorted(out.items())}


def pool_jobs(argv: list[str]) -> int:
    """Worker processes the CLI starts for argv, by the CLI's own default."""
    jobs = 0
    for i, a in enumerate(argv):
        if a == "--jobs" and i + 1 < len(argv):
            jobs = int(argv[i + 1])
    return jobs or os.cpu_count() or 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, type=Path,
                    help="directory for the workers' span files")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    args.spans.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(args.spans)
    sites = install(tracer)
    from lamosim import cli
    t0 = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - t0
    spans = list(tracer.spans)
    for f in sorted(args.spans.glob("spans-*.jsonl")):
        spans += [json.loads(line) for line in f.read_text().splitlines()]
    metrics = layer_metrics(spans, tracer.main_pid, pool_jobs(argv), wall)
    print(json.dumps({"returncode": rc, "binding_sites": sites, "metrics": metrics,
                      "layer_calls": layer_calls(spans), "designs": design_summary(spans)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
