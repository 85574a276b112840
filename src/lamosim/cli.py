"""Command-line front end.

Subcommands
    dataflow    search one GEMM's (tiling, policy) space on one chiplet's PE
    simulate    run a request trace through a system, optionally thermally coupled
    dse         chiplet- or system-level design-space exploration
    gen-trace   synthesize a request trace CSV

Every run writes an output directory: typed result files plus a manifest.json
recording the command, config hashes, the seed, and a digest over every other
file written. Reruns with the same configs and seed reproduce the same digest
byte for byte, for any --jobs value. stdout carries a short human summary;
machine consumers read the files.

Exit codes: 0 success, 2 usage or config error, 3 infeasible result (any
`hwspec.Infeasible`), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import __version__, dataflow
from .compute import GemmShape
from .dse import (
    DEFAULT_CHIPLET_DOMAIN,
    NoFeasibleDesign,
    Slo,
    chiplet_dse,
    system_dse,
)
from .hwspec import (
    ABSOLUTE_ZERO_C,
    ChipletSpec,
    ConfigError,
    Infeasible,
    Role,
    derive_chiplet_metrics,
    dump_json,
    parse_chiplet,
    parse_json,
    parse_model,
    parse_system,
    validate_system,
)
from .mapping import build_pd_plan, kv_headroom, search_plan
from .serving import (
    SimConfig,
    TRACE_MEANS,
    dump_trace_csv,
    load_trace_csv,
    roofline_check,
    simulate,
    summary_dict,
    synth_trace,
    write_request_csv,
)
from .thermal import NonConvergence, SingularNetwork, coupled_serve


class UsageError(Exception):
    """Bad flags or unreadable/invalid config input (exit 2)."""


def sub_seed(seed: int, purpose: str) -> int:
    """Stable child seed: same (seed, purpose) on any platform, any run."""
    h = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(h[:8], "big")


# --- config loading ---------------------------------------------------------------


def _config_path(arg: str) -> Path:
    """Resolve a config argument: as given, then under LAMOSIM_CONFIG_DIR,
    then in the configs shipped with the package."""
    p = Path(arg)
    if p.exists():
        return p
    env = os.environ.get("LAMOSIM_CONFIG_DIR")
    if env and (Path(env) / arg).exists():
        return Path(env) / arg
    packaged = Path(__file__).parent / "configs" / arg
    if packaged.exists():
        return packaged
    raise UsageError(f"config file not found: {arg}")


def _load_config(arg: str, parse: Callable[[Any], Any]) -> tuple[Any, str]:
    """(parse(JSON of the file), sha256 of the file bytes); errors name the file."""
    path = _config_path(arg)
    try:
        data = path.read_bytes()
        return parse(json.loads(data)), hashlib.sha256(data).hexdigest()
    except OSError as e:
        raise UsageError(f"{arg}: unreadable ({e.strerror})") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: invalid JSON ({e})") from None
    except ConfigError as e:
        raise UsageError(f"{arg}: {e}") from None


def _chiplet_of(obj: Any, type_name: str | None) -> ChipletSpec:
    """A bare chiplet JSON, or one type (by default the first by name) of a system JSON."""
    if not (isinstance(obj, dict) and "chiplet_types" in obj):
        if type_name is not None:
            raise ConfigError(f"--type {type_name!r} names a type of a system JSON, "
                              "but this is a chiplet JSON")
        return parse_chiplet(obj)
    types = parse_system(obj).chiplet_types
    name = type_name or min(types)
    if name not in types:
        raise ConfigError(f"no chiplet type {name!r} (has {sorted(types)})")
    return types[name]


@dataclass(frozen=True)
class PhaseShape:
    tp: int
    pp: int

    def __post_init__(self) -> None:
        if self.tp < 1 or self.pp < 1:
            raise ConfigError(f"tp and pp must be >= 1, got tp={self.tp} pp={self.pp}")


@dataclass(frozen=True)
class PlanFile:  # the --plan file
    prefill: PhaseShape
    decode: PhaseShape


@dataclass(frozen=True)
class Candidates:  # the --candidates file
    pc: tuple[ChipletSpec, ...]
    dc: tuple[ChipletSpec, ...]


def _parse_shape(text: str) -> GemmShape:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise UsageError(f"shape must be MxNxK, got {text!r}")
    try:
        m, n, k = (int(p) for p in parts)
        return GemmShape(m, n, k)
    except ValueError as e:
        raise UsageError(f"shape {text!r}: {e}") from None


def _parse_trace(arg: str, seed: int):
    """A CSV path, or SOURCE[:rate=R][:n=N][:mean_in=X][:mean_out=Y].

    Synthesized traces draw from sub_seed(seed, "trace"), so `gen-trace` and
    `simulate` given the same spec and seed see the same requests.
    """
    if os.path.exists(arg):
        try:
            trace = load_trace_csv(arg)
            return trace, {"trace": hashlib.sha256(Path(arg).read_bytes()).hexdigest()}
        except OSError as e:
            raise UsageError(f"{arg}: unreadable ({e.strerror})") from None
        except ValueError as e:
            raise UsageError(f"{arg}: {e}") from None
    head, _, rest = arg.partition(":")
    if head not in TRACE_MEANS and head != "custom":
        raise UsageError(f"trace file not found: {arg}")
    kw = {"rate": 1.0, "n": 32, "mean_in": None, "mean_out": None}
    given = set()
    for field in filter(None, rest.split(":")):
        key, eq, val = field.partition("=")
        if not eq or key not in kw:
            raise UsageError(f"bad trace spec field {field!r} in {arg!r}")
        if key in given:
            raise UsageError(f"trace spec field {key!r} given twice in {arg!r}")
        given.add(key)
        try:
            kw[key] = float(val) if key == "rate" else int(val)
        except ValueError:
            raise UsageError(f"bad trace spec value {field!r} in {arg!r}") from None
    try:
        trace = synth_trace(head, kw["n"], kw["rate"], sub_seed(seed, "trace"),
                            mean_input=kw["mean_in"], mean_output=kw["mean_out"])
    except ValueError as e:
        raise UsageError(f"trace spec {arg!r}: {e}") from None
    return trace, {"trace_spec": arg}


# --- output directory --------------------------------------------------------------


class OutDir:
    """Collects output files and finishes with the manifest."""

    def __init__(self, path: str):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.hashes: dict[str, str] = {}

    def write_text(self, name: str, text: str) -> None:
        data = text.encode()
        (self.path / name).write_bytes(data)
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def add_file(self, name: str) -> None:
        """Record a file that other code wrote into the directory."""
        self.hashes[name] = hashlib.sha256((self.path / name).read_bytes()).hexdigest()

    def write_json(self, name: str, obj: dict) -> None:
        self.write_text(name, dump_json(obj))

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        self.write_text(name, "\n".join(lines) + "\n")

    def finish(self, command: list[str], configs: dict[str, str], seed: int,
               t0: float, **extra) -> str:
        """Write manifest.json; returns the result digest."""
        pairs = sorted(self.hashes.items())
        digest = hashlib.sha256(
            "\n".join(f"{n} {h}" for n, h in pairs).encode()).hexdigest()
        manifest = {
            "command": command,
            "configs": configs,
            "seed": seed,
            "version": __version__,
            "wall_time_s": round(time.perf_counter() - t0, 3),
            "outputs": dict(pairs),
            "result_digest": digest,
        }
        manifest.update(extra)
        (self.path / "manifest.json").write_text(dump_json(manifest))
        return digest


def _fmt(x: float) -> str:
    return repr(float(x))


# --- dataflow ----------------------------------------------------------------------


_POLICY_FLAG = {
    "d3": tuple(dataflow.ReusePolicy),
    "iru": (dataflow.ReusePolicy.INPUT_REUSE,),
    "wru": (dataflow.ReusePolicy.WEIGHT_REUSE,),
    "oru": (dataflow.ReusePolicy.OUTPUT_REUSE,),
    "aru": (dataflow.ReusePolicy.ALL_REUSE,),
}


def cmd_dataflow(args) -> int:
    t0 = time.perf_counter()
    chiplet, pe_hash = _load_config(args.pe, lambda obj: _chiplet_of(obj, args.type))
    shape = _parse_shape(args.shape)
    configs = {"pe": pe_hash}
    dtype = args.dtype_bytes or 2
    if args.model:
        if args.dtype_bytes is not None:
            raise UsageError("--dtype-bytes and --model both set the dtype; give one")
        model, model_hash = _load_config(args.model, parse_model)
        dtype = model.dtype_bytes
        configs["model"] = model_hash
    policies = _POLICY_FLAG[args.policy]
    res = dataflow.search(shape, chiplet.pe, chiplet.dram, args.temp_c,
                          clock_hz=chiplet.clock_hz, dtype_bytes=dtype,
                          policies=policies)
    out = OutDir(args.out)
    out.write_json("result.json", {
        "shape": {"m": shape.m, "n": shape.n, "k": shape.k},
        "dtype_bytes": dtype,
        "temp_c": args.temp_c,
        "policy": res.policy.value,
        "tiling": {"t_m": res.tiling.t_m, "t_n": res.tiling.t_n, "t_k": res.tiling.t_k},
        "latency_s": res.cost.latency_s,
        "energy_j": res.cost.energy_j,
        "dram_bytes": res.cost.dram_bytes,
        "search_space_size": res.search_space_size,
        "evaluated": res.evaluated,
    })
    if args.dump_all:
        rows = []
        for t in dataflow.enumerate_tilings(shape, chiplet.pe):
            for p in policies:
                fits = dataflow.staged_tile_bytes(p, t, dtype) <= chiplet.pe.sram_capacity_bytes
                lat = en = ""
                if fits:
                    c = dataflow.evaluate_mapping(shape, p, t, chiplet.pe, chiplet.dram,
                                                  args.temp_c, chiplet.clock_hz, dtype)
                    lat, en = _fmt(c.latency_s), _fmt(c.energy_j)
                rows.append([t.t_m, t.t_n, t.t_k, p.value, int(fits), lat, en])
        out.write_csv("candidates.csv",
                      ["t_m", "t_n", "t_k", "policy", "feasible", "latency_s", "energy_j"],
                      rows)
    out.finish(args.argv, configs, 0, t0)
    print(f"dataflow {shape.m}x{shape.n}x{shape.k}: policy={res.policy.value} "
          f"tiling=({res.tiling.t_m},{res.tiling.t_n},{res.tiling.t_k}) "
          f"latency={res.cost.latency_s:.4e} s energy={res.cost.energy_j:.4e} J "
          f"({res.evaluated}/{res.search_space_size} candidates)")
    return 0


# --- simulate ----------------------------------------------------------------------


def _build_plan(spec, model, args, configs):
    """PdPlan plus the KV budget for the serving config."""
    kv_arg = None if args.kv_budget_mb is None else int(args.kv_budget_mb * (1 << 20))
    if args.plan == "auto":
        choice = search_plan(spec, model, kv_budget_decode_bytes=kv_arg,
                             temp_c=args.temp_c, seed=sub_seed(args.seed, "plan"))
        return choice.plan, choice.kv_budget_bytes
    shapes, configs["plan"] = _load_config(args.plan, lambda obj: parse_json(PlanFile, obj, "plan"))
    plan = build_pd_plan(
        spec, model,
        tp_prefill=shapes.prefill.tp, pp_prefill=shapes.prefill.pp,
        tp_decode=shapes.decode.tp, pp_decode=shapes.decode.pp,
        kv_budget_decode_bytes=kv_arg or 0, seed=sub_seed(args.seed, "plan"))
    budget = kv_arg if kv_arg is not None else kv_headroom(plan.decode, spec, model)
    return plan, budget


def _sim_config(args, kv_budget: int) -> SimConfig:
    return SimConfig(
        max_prefill_batch=args.max_prefill_batch,
        max_decode_batch=args.max_decode_batch,
        len_bucket=args.len_bucket,
        continuous_batching=not args.static_batching,
        kv_budget_bytes=kv_budget,
    )


def _plan_dict(plan, kv_budget: int) -> dict:
    def phase(p):
        return {"tp": p.tp, "pp": p.pp,
                "layer_bounds": [list(b) for b in p.layer_bounds]}
    return {"prefill": phase(plan.prefill), "decode": phase(plan.decode),
            "kv_budget_bytes": kv_budget}


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    spec, sys_hash = _load_config(args.system, parse_system)
    model, model_hash = _load_config(args.model, parse_model)
    configs = {"system": sys_hash, "model": model_hash}
    validate_system(spec, model)
    trace, trace_cfg = _parse_trace(args.trace, args.seed)
    configs.update(trace_cfg)
    plan, kv_budget = _build_plan(spec, model, args, configs)
    cfg = _sim_config(args, kv_budget)

    thermal = None
    if args.thermal:
        metrics, thermal = coupled_serve(spec, model, plan, trace, cfg,
                                         start_temp_c=args.temp_c)
        temps = thermal.dram_hot_c
    else:
        metrics = simulate(spec, model, plan, trace, cfg, temps=args.temp_c)
        temps = args.temp_c
    violations = roofline_check(metrics, spec, plan, temps=temps)

    out = OutDir(args.out)
    thermal_sum = None
    if thermal is not None:
        thermal_sum = {"t_max_c": thermal.t_max_c, "flow_level": thermal.flow_level,
                       "pump_w": thermal.pump_w, "iterations": thermal.iterations,
                       "over_limit": thermal.over_limit}
        rows = []
        for chip in sorted(thermal.logic_c):
            rows.append([chip[0], chip[1], spec.placement[chip], "logic",
                         _fmt(thermal.logic_c[chip])])
            for i, t in enumerate(thermal.dram_c[chip]):
                rows.append([chip[0], chip[1], spec.placement[chip], f"dram{i}", _fmt(t)])
        out.write_csv("thermal.csv", ["x", "y", "type", "node", "temp_c"], rows)
    out.write_json("metrics.json", {
        "plan": _plan_dict(plan, kv_budget),
        "serving": summary_dict(metrics),
        "roofline_violations": len(violations),
        "thermal": thermal_sum,
    })
    write_request_csv(metrics, str(out.path / "requests.csv"))
    out.add_file("requests.csv")
    dump_trace_csv(trace, str(out.path / "trace.csv"))
    out.add_file("trace.csv")
    out.finish(args.argv, configs, args.seed, t0, run={
        "events": metrics.events, "stage_executions": metrics.stage_executions,
        "coupling_rounds": thermal.rounds if thermal is not None else 0,
        "placement": {ph.phase.value: {"greedy_objective_s": ph.placement.greedy_objective,
                                       "objective_s": ph.placement.objective}
                      for ph in (plan.prefill, plan.decode)}})

    s = summary_dict(metrics)
    print(f"simulate: {s['requests']} requests, {s['total_tokens']} tokens, "
          f"makespan {s['makespan_s']:.3f} s, {s['throughput_tok_s']:.1f} tok/s, "
          f"ttft p95 {s['ttft_p95_s']:.3e} s, tbt p95 {s['tbt_p95_s']:.3e} s")
    if thermal_sum:
        print(f"thermal: t_max {thermal_sum['t_max_c']:.1f} C at flow level "
              f"{thermal_sum['flow_level']} ({thermal_sum['iterations']} iterations)")
    if violations:
        for v in violations[:10]:
            print(f"roofline violation: {v}", file=sys.stderr)
        print(f"error: {len(violations)} operator(s) above the roofline", file=sys.stderr)
        return 4
    return 0


# --- gen-trace ---------------------------------------------------------------------


def cmd_gen_trace(args) -> int:
    t0 = time.perf_counter()
    try:
        trace = synth_trace(args.source, args.n, args.rate, sub_seed(args.seed, "trace"),
                            mean_input=args.mean_input, mean_output=args.mean_output)
    except ValueError as e:
        raise UsageError(str(e)) from None
    out = OutDir(args.out)
    dump_trace_csv(trace, str(out.path / "trace.csv"))
    out.add_file("trace.csv")
    out.finish(args.argv, {}, args.seed, t0, requests=len(trace))
    print(f"gen-trace: {len(trace)} requests (source={args.source}, "
          f"rate={args.rate} rps, seed={args.seed})")
    return 0


# --- dse ---------------------------------------------------------------------------


def _chiplet_row(c) -> list:
    m = derive_chiplet_metrics(c)
    return [
        c.pe_rows * c.pe_cols, c.pe.n_core, c.pe.sa_rows, c.pe.sa_cols,
        c.pe.base_sa_rows, c.pe.sram_capacity_bytes // 1024, c.pe.vector_regs,
        c.dram.n_layer, c.dram.n_bank, c.dram.n_io_bits, c.dram.capacity_bytes >> 30,
        _fmt(m.peak_flops / 1e12), _fmt(m.peak_bw_bytes / 1e9), _fmt(m.peak_power_w),
    ]


_CHIPLET_HEADER = [
    "n_pe", "n_core", "sa_rows", "sa_cols", "base_sa_rows", "sram_kb",
    "vector_regs", "n_layer", "n_bank", "n_io_bits", "capacity_gb",
    "peak_tflops", "peak_bw_gbs", "peak_power_w",
]


def cmd_dse_chiplet(args) -> int:
    t0 = time.perf_counter()
    base, base_hash = _load_config(args.base, lambda obj: _chiplet_of(obj, args.type))
    configs = {"base": base_hash}
    domain = dict(DEFAULT_CHIPLET_DOMAIN)
    if args.domain:
        axes, configs["domain"] = _load_config(
            args.domain, lambda obj: parse_json(dict[str, tuple[int, ...]], obj, "domain"))
        unknown = sorted(set(axes) - set(DEFAULT_CHIPLET_DOMAIN))
        if unknown:
            raise UsageError(f"{args.domain}: unknown domain axes {unknown} "
                             f"(axes: {sorted(DEFAULT_CHIPLET_DOMAIN)})")
        bad = [k for k, v in axes.items() if not v or min(v) < 1]
        if bad:
            raise UsageError(f"{args.domain}: axes must be non-empty lists of "
                             f"counts and sizes >= 1: {bad}")
        domain.update(axes)
    res = chiplet_dse(base, args.budget, args.seed, domain=domain, eps=args.eps)
    out = OutDir(args.out)
    front = set(res.front)
    out.write_csv("pareto.csv", _CHIPLET_HEADER + ["on_front"],
                  [_chiplet_row(c) + [int(c in front)] for c in res.retained])
    out.write_json("report.json", {
        "sampled": res.sampled,
        "valid": len(res.valid),
        "front": len(res.front),
        "retained": len(res.retained),
        "rejects": {k: res.rejects[k] for k in sorted(res.rejects)},
    })
    out.finish(args.argv, configs, args.seed, t0, evaluations=res.sampled)
    print(f"dse chiplet: {res.sampled} sampled, {len(res.valid)} valid, "
          f"{len(res.front)} on the front, {len(res.retained)} retained")
    return 0


def _parse_counts(args, template) -> list[tuple[int, int]]:
    if args.counts:
        out = []
        for c in args.counts:
            parts = c.split(",")
            if len(parts) != 2:
                raise UsageError(f"--counts takes N_PC,N_DC, got {c!r}")
            try:
                n_pc, n_dc = int(parts[0]), int(parts[1])
            except ValueError:
                raise UsageError(f"--counts takes N_PC,N_DC, got {c!r}") from None
            if n_pc < 1 or n_dc < 1:
                raise UsageError(f"--counts needs at least one chiplet per pool, got {c!r}")
            if (n_pc, n_dc) in out:
                raise UsageError(f"--counts {c!r} given twice")
            out.append((n_pc, n_dc))
        return out
    return [(len(template.coords_for_role(Role.PREFILL)),
             len(template.coords_for_role(Role.DECODE)))]


def _load_candidates(args, template, configs):
    if args.candidates:
        cands, configs["candidates"] = _load_config(
            args.candidates, lambda obj: parse_json(Candidates, obj, "candidates"))
        if not cands.pc or not cands.dc:
            raise UsageError(f"{args.candidates}: both candidate lists must be non-empty")
        if len(set(cands.pc)) < len(cands.pc) or len(set(cands.dc)) < len(cands.dc):
            raise UsageError(f"{args.candidates}: a candidate list repeats a chiplet")
        return cands.pc, cands.dc
    pc = [template.chiplet_types[n] for n in sorted(template.chiplet_types)
          if template.chiplet_types[n].role is Role.PREFILL]
    dc = [template.chiplet_types[n] for n in sorted(template.chiplet_types)
          if template.chiplet_types[n].role is Role.DECODE]
    if not pc or not dc:
        raise UsageError("template system lacks a prefill or decode chiplet type")
    return pc, dc


_RANKING_HEADER = [
    "rank", "pc", "dc", "n_pc", "n_dc", "feasible", "tokens_per_joule",
    "throughput_tok_s", "ttft_p95_s", "tbt_p95_s", "t_max_c", "peak_power_w",
    "simulated", "violations",
]


def _eval_row(rank: int, ev) -> list:
    p = ev.point
    return [rank, p.pc, p.dc, p.n_pc, p.n_dc, int(ev.feasible),
            _fmt(ev.tokens_per_joule), _fmt(ev.throughput_tok_s),
            _fmt(ev.ttft_p95_s), _fmt(ev.tbt_p95_s), _fmt(ev.t_max_c),
            _fmt(ev.peak_power_w), int(ev.simulated), ";".join(ev.violations)]


def cmd_dse_system(args) -> int:
    t0 = time.perf_counter()
    template, sys_hash = _load_config(args.system, parse_system)
    model, model_hash = _load_config(args.model, parse_model)
    configs = {"system": sys_hash, "model": model_hash}
    trace, trace_cfg = _parse_trace(args.trace, args.seed)
    configs.update(trace_cfg)
    pc, dc = _load_candidates(args, template, configs)
    counts = _parse_counts(args, template)
    for flag, bound in (("--slo-ttft", args.slo_ttft), ("--slo-tbt", args.slo_tbt)):
        if bound is not None and bound <= 0:
            raise UsageError(f"{flag} must be > 0, got {bound}")
    slo = Slo(ttft_p95_s=args.slo_ttft, tbt_p95_s=args.slo_tbt)
    kv = None if args.kv_budget_mb is None else int(args.kv_budget_mb * (1 << 20))
    cfg = _sim_config(args, kv)

    # a worker per design at most: the pool forks all its workers at once
    jobs = min(args.jobs or os.cpu_count() or 1, len(pc) * len(dc) * len(counts))
    out = OutDir(args.out)

    def run(map_fn):
        return system_dse(template, model, trace, pc, dc, counts, slo,
                          budget=args.budget, seed=args.seed, cfg=cfg,
                          temp_c=args.temp_c, map_fn=map_fn)

    try:
        if jobs > 1:
            # the only pool; importing it here keeps it out of every other command
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                res = run(pool.map)
        else:
            res = run(map)
    except NoFeasibleDesign as e:
        hist = {k: e.histogram[k] for k in sorted(e.histogram)}
        out.write_json("report.json", {"infeasible": True, "histogram": hist})
        out.finish(args.argv, configs, args.seed, t0)
        print("infeasible: no design satisfies the constraints", file=sys.stderr)
        for kind in hist:
            print(f"  {kind}: {hist[kind]}", file=sys.stderr)
        return 3

    ranked = sorted(
        res.evaluated,
        key=lambda ev: (-ev.feasible, -ev.tokens_per_joule, ev.point.pc,
                        ev.point.dc, ev.point.n_pc, ev.point.n_dc))
    out.write_csv("ranking.csv", _RANKING_HEADER,
                  [_eval_row(i, ev) for i, ev in enumerate(ranked)])
    b = res.best
    out.write_json("best.json", {
        "point": {"pc": b.point.pc, "dc": b.point.dc,
                  "n_pc": b.point.n_pc, "n_dc": b.point.n_dc},
        "tokens_per_joule": b.tokens_per_joule,
        "throughput_tok_s": b.throughput_tok_s,
        "ttft_p95_s": b.ttft_p95_s,
        "tbt_p95_s": b.tbt_p95_s,
        "t_max_c": b.t_max_c,
        "peak_power_w": b.peak_power_w,
        "recheck_ok": res.recheck_ok,
        "exhaustive": res.exhaustive,
        "sim_count": res.sim_count,
    })
    out.finish(args.argv, configs, args.seed, t0,
               evaluations=len(res.evaluated), simulations=res.sim_count,
               exhaustive=res.exhaustive, recheck_ok=res.recheck_ok)
    mode = "exhaustive" if res.exhaustive else "best-first"
    print(f"dse system ({mode}): {len(res.evaluated)} designs, "
          f"{res.sim_count} simulations, recheck_ok={res.recheck_ok}")
    print(f"best: pc={b.point.pc} dc={b.point.dc} n_pc={b.point.n_pc} "
          f"n_dc={b.point.n_dc} {b.tokens_per_joule:.4f} tok/J "
          f"{b.throughput_tok_s:.1f} tok/s t_max {b.t_max_c:.1f} C")
    return 0


def cmd_dse(args) -> int:
    # argv parsed again with every default None, which no given flag parses
    # to, names the given flags in any spelling argparse accepts
    p = argparse.ArgumentParser()
    _add_dse_flags(p)
    p.set_defaults(**dict.fromkeys(vars(args)))
    given = {d for d, v in vars(p.parse_args(args.argv[1:])).items() if v is not None}
    # the chiplet level's own flags; every other flag but the four both
    # levels read is the system level's
    chiplet = {"base", "type", "domain", "eps"}
    both = {"level", "budget", "seed", "out"}
    unread = given - chiplet - both if args.level == "chiplet" else given & chiplet
    if unread:
        raise UsageError(f"--level {args.level} does not read "
                         + ", ".join(f"--{d.replace('_', '-')}" for d in sorted(unread)))
    if args.level == "chiplet":
        if not args.base:
            raise UsageError("--level chiplet requires --base")
        return cmd_dse_chiplet(args)
    for flag in ("system", "model", "trace"):
        if not getattr(args, flag):
            raise UsageError(f"--level system requires --{flag}")
    if args.budget < 2:
        raise UsageError(f"--budget must be >= 2 at --level system, got {args.budget}")
    return cmd_dse_system(args)


# --- parser ------------------------------------------------------------------------


def _at_least(kind: type, low):
    """argparse type: a `kind` number no smaller than `low`; a float must
    also be finite."""
    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_finite = _at_least(float, -math.inf)  # argparse type: any finite float


def _add_batching_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-prefill-batch", type=_at_least(int, 1), default=4)
    p.add_argument("--max-decode-batch", type=_at_least(int, 1), default=64)
    p.add_argument("--len-bucket", type=_at_least(int, 1), default=64)
    p.add_argument("--static-batching", action="store_true",
                   help="disable continuous batching")
    p.add_argument("--kv-budget-mb", type=_at_least(float, 0.0), default=None,
                   help="decode KV budget; default: the placement's headroom")


def _add_dse_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--level", choices=["chiplet", "system"], required=True)
    p.add_argument("--budget", type=_at_least(int, 1), required=True,
                   help="chiplet: samples to draw; system: simulation budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    # chiplet level
    p.add_argument("--base", default=None,
                   help="chiplet JSON (or system JSON, see --type) the samples perturb")
    p.add_argument("--type", default=None)
    p.add_argument("--domain", default=None,
                   help="JSON {axis: [values]}; unlisted axes keep their defaults")
    p.add_argument("--eps", type=_at_least(float, 0.0), default=0.05,
                   help="near-Pareto retention band")
    # system level
    p.add_argument("--system", default=None, help="template system JSON")
    p.add_argument("--model", default=None)
    p.add_argument("--trace", default=None)
    p.add_argument("--candidates", default=None,
                   help='JSON {"pc": [chiplets], "dc": [chiplets]}; '
                        "default: the template's own types")
    p.add_argument("--counts", action="append", default=None, metavar="N_PC,N_DC",
                   help="pool sizes to explore (repeatable); default: the template's")
    p.add_argument("--slo-ttft", type=_finite, default=None, help="p95 TTFT bound, s")
    p.add_argument("--slo-tbt", type=_finite, default=None, help="p95 TBT bound, s")
    p.add_argument("--temp-c", type=_at_least(float, ABSOLUTE_ZERO_C), default=65.0)
    p.add_argument("--jobs", type=_at_least(int, 1), default=None,
                   help="worker processes; default: available cores")
    _add_batching_flags(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lamosim",
        description="Serving-aware simulator for stacked-DRAM chiplet systems.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("dataflow", help="search one GEMM's tiling/policy space")
    p.add_argument("--shape", required=True, help="GEMM as MxNxK, e.g. 1x4096x4096")
    p.add_argument("--pe", required=True,
                   help="chiplet JSON, or a system JSON (see --type)")
    p.add_argument("--type", default=None,
                   help="chiplet type name when --pe is a system JSON")
    p.add_argument("--model", default=None, help="model JSON; sets dtype")
    p.add_argument("--dtype-bytes", type=_at_least(int, 1), default=None,
                   help="default 2; --model sets it instead")
    p.add_argument("--temp-c", type=_at_least(float, ABSOLUTE_ZERO_C), default=65.0)
    p.add_argument("--policy", choices=sorted(_POLICY_FLAG), default="d3",
                   help="d3 searches all reuse policies; others fix one")
    p.add_argument("--dump-all", action="store_true",
                   help="write every candidate to candidates.csv")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_dataflow)

    p = sub.add_parser("simulate", help="run a trace through a system")
    p.add_argument("--system", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True,
                   help="CSV path or SOURCE[:rate=R][:n=N][:mean_in=X][:mean_out=Y]; "
                        f"sources: {', '.join(sorted(TRACE_MEANS))}, custom")
    p.add_argument("--plan", default="auto",
                   help='"auto" or a JSON file with per-phase {"tp", "pp"}')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temp-c", type=_at_least(float, ABSOLUTE_ZERO_C), default=65.0)
    p.add_argument("--thermal", action="store_true",
                   help="couple serving with the thermal fixed point")
    _add_batching_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-trace", help="synthesize a request trace CSV")
    p.add_argument("--source", required=True,
                   choices=sorted(TRACE_MEANS) + ["custom"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--rate", type=_finite, default=1.0, help="requests per second")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mean-input", type=int, default=None)
    p.add_argument("--mean-output", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("dse", help="design-space exploration")
    _add_dse_flags(p)
    p.set_defaults(func=cmd_dse)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Infeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except (NonConvergence, SingularNetwork, AssertionError) as e:
        print(f"internal: {e}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
