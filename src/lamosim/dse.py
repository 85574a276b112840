"""Design-space exploration.

Two layers, each usable on its own:

  * chiplet_dse: stratified sampling over the per-chiplet parameter grid,
    budget validation, and a per-capacity Pareto filter (with an epsilon
    band so near-optimal designs survive to the system stage).
  * system_dse: budgeted search over (prefill chiplet, decode chiplet,
    pool counts). Exhaustive when the space fits the simulation budget,
    otherwise best-first: a stratified seed wave, then waves of the untried
    grid neighbours of the best design that has any. Waves are fixed by the
    results so far, so results do not depend on worker count. Each design
    is planned by `mapping.search_plan`.

Budget here counts full serving simulations. A design that raises any
`hwspec.Infeasible`, or whose thermal fixed point does not converge
(`thermal.NonConvergence`), is one rejected point (a failed validation under
its violation kinds, else under the type's name), free if it never simulated.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .hwspec import (
    ChipletSpec,
    Infeasible,
    ModelSpec,
    Role,
    SystemSpec,
    SystemValidationError,
    chiplet_violations,
    derive_chiplet_metrics,
    validate_system,
)
from .mapping import search_plan
from .serving import SimConfig
from .thermal import NonConvergence, coupled_serve


class NoFeasibleDesign(Exception):
    """Every evaluated design violated at least one constraint."""

    def __init__(self, histogram: Mapping[str, int]):
        self.histogram = dict(histogram)
        parts = ", ".join(f"{k} x{v}" for k, v in
                          sorted(self.histogram.items(), key=lambda kv: -kv[1]))
        super().__init__(f"no feasible design; violations: {parts or 'none recorded'}")


# --- Pareto utilities --------------------------------------------------------


def epsilon_retained(items: Sequence, key: Callable[[object], Sequence[float]],
                     eps: float) -> list:
    """Items no rival beats by a factor (1 + eps) in every objective, in
    order; equal points never beat each other, so eps 0 gives the Pareto front.

    Objectives must be positive and in maximization sense; a minimized
    quantity goes in as its reciprocal.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    pts = [(it, tuple(key(it))) for it in items]
    keep = []
    for i, (it, p) in enumerate(pts):
        beaten = any(
            j != i and q != p
            and all(qi >= pi * (1.0 + eps) for qi, pi in zip(q, p))
            for j, (_, q) in enumerate(pts))
        if not beaten:
            keep.append(it)
    return keep


def _chiplet_objectives(c: ChipletSpec) -> tuple[float, float, float]:
    m = derive_chiplet_metrics(c)
    return (m.peak_flops, m.peak_bw_bytes, 1.0 / m.peak_power_w)


# --- chiplet-level sweep ------------------------------------------------------

# Value grids for the sampled dimensions.
DEFAULT_CHIPLET_DOMAIN: dict[str, tuple[int, ...]] = {
    "n_io_bits": (32, 64, 128, 256, 512),
    "capacity_gb": (1, 2, 4, 8, 16, 32),
    "n_layer": (1, 2, 3, 4, 5),
    "n_bank": (8, 16, 32, 64, 128),
    "n_core": (1, 2, 4, 8, 10, 16, 24, 32),
    "n_pe": (4, 6, 8, 9, 10, 12, 16, 18, 20, 24, 25),
    "sram_kb": (64, 128, 256, 512, 1024, 2048),
    "sa_rows": (16, 32, 64, 128),
    "sa_cols": (16, 32, 64, 128),
    "base_sa_rows": (1, 2, 4, 8, 16),
    "vector_regs": (16, 32, 64, 128),
}


def _grid_dims(n_pe: int) -> tuple[int, int]:
    """Most-square rows x cols factorization; rows <= cols."""
    r = int(math.isqrt(n_pe))
    while n_pe % r:
        r -= 1
    return r, n_pe // r


def stratified_samples(domain: Mapping[str, Sequence], n: int,
                       seed: int) -> list[dict]:
    """n samples covering every axis evenly: each value list is tiled to
    length n and independently shuffled, then read off column-wise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    cols: dict[str, list] = {}
    for key in sorted(domain):
        vals = list(domain[key])
        if not vals:
            raise ValueError(f"domain axis {key!r} is empty")
        col = (vals * math.ceil(n / len(vals)))[:n]
        rng.shuffle(col)
        cols[key] = col
    return [{k: cols[k][i] for k in cols} for i in range(n)]


def chiplet_from_sample(base: ChipletSpec, sample: Mapping[str, int]) -> ChipletSpec:
    """Instantiate a candidate: sampled geometry over the base chiplet's
    timing, energy, and budget constants. Raises ConfigError (via the spec
    constructors) or ValueError when the combination is inconsistent."""
    rows, cols = _grid_dims(sample["n_pe"])
    dram = replace(
        base.dram,
        n_layer=sample["n_layer"],
        n_bank=sample["n_bank"],
        n_io_bits=sample["n_io_bits"],
        capacity_bytes=sample["capacity_gb"] << 30,
    )
    n_mc = dram.channels // (rows * cols)
    if n_mc < 1:
        raise ValueError("fewer DRAM channels than PEs")
    pe = replace(
        base.pe,
        n_core=sample["n_core"],
        sa_rows=sample["sa_rows"],
        sa_cols=sample["sa_cols"],
        base_sa_rows=sample["base_sa_rows"],
        sram_capacity_bytes=sample["sram_kb"] * 1024,
        vector_regs=sample["vector_regs"],
        n_mc=n_mc,
    )
    return replace(base, pe_rows=rows, pe_cols=cols, pe=pe, dram=dram)


@dataclass(frozen=True)
class ChipletDseResult:
    sampled: int
    valid: tuple[ChipletSpec, ...]
    front: tuple[ChipletSpec, ...]       # exact Pareto set, per capacity class
    retained: tuple[ChipletSpec, ...]    # front plus the epsilon band
    rejects: Mapping[str, int]


def chiplet_dse(base: ChipletSpec, n_samples: int, seed: int,
                domain: Mapping[str, Sequence] | None = None,
                eps: float = 0.05) -> ChipletDseResult:
    """Sample candidate chiplets and keep the per-capacity Pareto band over
    (peak FLOPS up, peak bandwidth up, peak power down)."""
    dom = domain or DEFAULT_CHIPLET_DOMAIN
    missing = sorted(set(DEFAULT_CHIPLET_DOMAIN) - set(dom))
    unknown = sorted(set(dom) - set(DEFAULT_CHIPLET_DOMAIN))
    if missing or unknown:
        raise ValueError(f"domain axes: missing {missing}, unknown {unknown}")
    rejects: Counter[str] = Counter()
    valid: list[ChipletSpec] = []
    for sample in stratified_samples(dom, n_samples, seed):
        try:
            cand = chiplet_from_sample(base, sample)
        except ValueError as e:  # spec constructors validate eagerly
            rejects[type(e).__name__] += 1
            continue
        vio = chiplet_violations("candidate", cand)
        if vio:
            for v in vio:
                rejects[v.kind] += 1
            continue
        valid.append(cand)
    valid = list(dict.fromkeys(valid))
    by_cap: dict[int, list[ChipletSpec]] = {}
    for c in valid:
        by_cap.setdefault(c.dram.capacity_bytes, []).append(c)
    front: list[ChipletSpec] = []
    retained: list[ChipletSpec] = []
    for cap in sorted(by_cap):
        front.extend(epsilon_retained(by_cap[cap], _chiplet_objectives, 0.0))
        retained.extend(epsilon_retained(by_cap[cap], _chiplet_objectives, eps))
    return ChipletDseResult(
        sampled=n_samples,
        valid=tuple(valid),
        front=tuple(front),
        retained=tuple(retained),
        rejects=dict(rejects),
    )


# --- system-level search ------------------------------------------------------


@dataclass(frozen=True)
class Slo:
    """Serving constraints; None disables a bound."""

    ttft_p95_s: float | None = None
    tbt_p95_s: float | None = None


@dataclass(frozen=True)
class DesignPoint:
    pc: int      # index into the prefill candidate list
    dc: int      # index into the decode candidate list
    n_pc: int
    n_dc: int


@dataclass(frozen=True)
class DesignEval:
    point: DesignPoint
    feasible: bool
    violations: tuple[str, ...]
    tokens_per_joule: float
    throughput_tok_s: float
    ttft_p95_s: float
    tbt_p95_s: float
    t_max_c: float
    peak_power_w: float
    simulated: bool


@dataclass(frozen=True)
class SystemDseResult:
    best: DesignEval
    evaluated: tuple[DesignEval, ...]
    sim_count: int
    exhaustive: bool
    recheck_ok: bool


def build_system(template: SystemSpec, pc: ChipletSpec, dc: ChipletSpec,
                 n_pc: int, n_dc: int) -> SystemSpec:
    """Place n_pc prefill and n_dc decode chiplets row-major on a near-square
    mesh, inheriting interconnect, cooling, and rack limits from template."""
    if n_pc < 1 or n_dc < 1:
        raise ValueError("need at least one chiplet per pool")
    total = n_pc + n_dc
    width = math.isqrt(total)
    if width * width < total:
        width += 1
    placement = {}
    for i in range(total):
        placement[(i % width, i // width)] = "pc" if i < n_pc else "dc"
    return replace(
        template,
        chiplet_types={"pc": replace(pc, role=Role.PREFILL),
                       "dc": replace(dc, role=Role.DECODE)},
        placement=placement,
    )


def evaluate_design(point: DesignPoint, *, pc_candidates: Sequence[ChipletSpec],
                    dc_candidates: Sequence[ChipletSpec], template: SystemSpec,
                    model: ModelSpec, trace, slo: Slo,
                    cfg: SimConfig = SimConfig(),
                    temp_c: float = 65.0, seed: int = 0) -> DesignEval:
    """Full evaluation of one design: build, validate, plan, simulate with
    thermal coupling, then apply the SLO / thermal / power / KV constraints."""

    def rejected(violations: Iterable[str], simulated: bool = False) -> DesignEval:
        return DesignEval(point=point, feasible=False, violations=tuple(violations),
                          tokens_per_joule=0.0, throughput_tok_s=0.0,
                          ttft_p95_s=math.inf, tbt_p95_s=math.inf, t_max_c=math.inf,
                          peak_power_w=math.inf, simulated=simulated)

    spec = build_system(template, pc_candidates[point.pc],
                        dc_candidates[point.dc], point.n_pc, point.n_dc)
    simulated = False  # static rejects cost no budget
    try:
        peak_power_w = validate_system(spec, model)
        choice = search_plan(spec, model, kv_budget_decode_bytes=cfg.kv_budget_bytes,
                             temp_c=temp_c, seed=seed)
        run_cfg = replace(cfg, kv_budget_bytes=choice.kv_budget_bytes)
        simulated = True
        metrics, thermal = coupled_serve(spec, model, choice.plan, trace,
                                         run_cfg, start_temp_c=temp_c)
    except SystemValidationError as e:
        return rejected(sorted({v.kind for v in e.violations}))
    except (Infeasible, NonConvergence) as e:
        return rejected([type(e).__name__], simulated)
    violations = []
    ttft = metrics.ttft_percentile(95)
    tbt = metrics.tbt_percentile(95)
    if slo.ttft_p95_s is not None and ttft > slo.ttft_p95_s:
        violations.append("TtftSlo")
    if slo.tbt_p95_s is not None and tbt > slo.tbt_p95_s:
        violations.append("TbtSlo")
    if thermal.over_limit:
        violations.append("ThermalLimit")
    power = peak_power_w + thermal.pump_w
    if power > spec.rack_power_limit_w:
        violations.append("PowerExceeded")
    if metrics.kv_overflow:
        violations.append("KvCapacity")
    energy = metrics.energy_j + thermal.pump_w * metrics.makespan_s
    return DesignEval(
        point=point,
        feasible=not violations,
        violations=tuple(violations),
        tokens_per_joule=metrics.total_tokens / energy if energy > 0 else 0.0,
        throughput_tok_s=metrics.throughput_tok_s,
        ttft_p95_s=ttft,
        tbt_p95_s=tbt,
        t_max_c=thermal.t_max_c,
        peak_power_w=power,
        simulated=True,
    )


def _neighbours(t: tuple[int, ...], axes: Sequence[int]) -> list[tuple[int, ...]]:
    """The designs one step from `t` along one axis: axis by axis, -1 first."""
    return [t[:a] + (t[a] + d,) + t[a + 1:]
            for a in range(len(axes)) for d in (-1, 1) if 0 <= t[a] + d < axes[a]]


def system_dse(template: SystemSpec, model: ModelSpec, trace,
               pc_candidates: Sequence[ChipletSpec],
               dc_candidates: Sequence[ChipletSpec],
               counts: Sequence[tuple[int, int]], slo: Slo, *,
               budget: int, seed: int = 0, cfg: SimConfig = SimConfig(),
               temp_c: float = 65.0,
               map_fn: Callable = map) -> SystemDseResult:
    """Budgeted constrained search, ranked by tokens per joule.

    At most `budget` simulations run. The whole space is enumerated when it
    fits inside the budget (one simulation is always reserved for
    re-checking the winner). Otherwise a stratified seed wave of at most
    `budget - 1` designs holds every value of every axis once, and each later
    wave holds the unevaluated +-1 neighbours, along one axis, of the
    best-ranked evaluated design that has any, cut to the budget left. Whole
    waves are dispatched through map_fn, so any order-preserving parallel map
    gives identical results.
    """
    if budget < 2:
        raise ValueError("budget must allow at least one evaluation plus a re-check")
    if not pc_candidates or not dc_candidates or not counts:
        raise ValueError("candidate lists and counts must be non-empty")
    axes = (len(pc_candidates), len(dc_candidates), len(counts))
    triples = [(i, j, k)
               for i in range(axes[0]) for j in range(axes[1])
               for k in range(axes[2])]
    order = {t: n for n, t in enumerate(triples)}

    def to_point(t: tuple[int, int, int]) -> DesignPoint:
        n_pc, n_dc = counts[t[2]]
        return DesignPoint(pc=t[0], dc=t[1], n_pc=n_pc, n_dc=n_dc)

    eval_fn = partial(
        evaluate_design, pc_candidates=tuple(pc_candidates),
        dc_candidates=tuple(dc_candidates), template=template, model=model,
        trace=trace, slo=slo, cfg=cfg, temp_c=temp_c, seed=seed)

    evaluated: dict[tuple[int, int, int], DesignEval] = {}
    sims = 0

    def run_wave(batch: list[tuple[int, int, int]]) -> None:  # distinct, unevaluated
        nonlocal sims
        for t, ev in zip(batch, map_fn(eval_fn, [to_point(t) for t in batch])):
            evaluated[t] = ev
            sims += ev.simulated

    def rank_key(t: tuple[int, int, int]):
        ev = evaluated[t]
        return (ev.feasible, ev.tokens_per_joule, -order[t])

    exhaustive = len(triples) + 1 <= budget
    if exhaustive:
        run_wave(triples)
    else:
        # stratified seed wave: every value of every axis once, each axis
        # under its own shuffle, with room left for the re-check
        rng = random.Random(seed)
        perms = [rng.sample(range(n), n) for n in axes]
        run_wave([tuple(perms[a][i % axes[a]] for a in range(3))
                  for i in range(min(max(axes), budget - 1))])
        # the grid is connected, so some evaluated design has an unevaluated neighbour
        while len(evaluated) < len(triples) and (left := budget - 1 - sims) > 0:
            wave = next(w for t in sorted(evaluated, key=rank_key, reverse=True)
                        if (w := [n for n in _neighbours(t, axes) if n not in evaluated]))
            run_wave(wave[:left])

    best_t = max(evaluated, key=rank_key)
    best = evaluated[best_t]
    if not best.feasible:
        hist: Counter[str] = Counter()
        for ev in evaluated.values():
            hist.update(ev.violations)
        raise NoFeasibleDesign(hist)
    # independent re-check of the winner with a fresh simulation
    fresh = eval_fn(to_point(best_t))
    sims += fresh.simulated
    recheck_ok = fresh == best
    ordered = tuple(evaluated[t] for t in sorted(evaluated, key=order.__getitem__))
    return SystemDseResult(
        best=fresh,
        evaluated=ordered,
        sim_count=sims,
        exhaustive=exhaustive,
        recheck_ok=recheck_ok,
    )
