"""Design-space exploration.

Three layers, each usable on its own:

  * chiplet_dse: stratified sampling over the per-chiplet parameter grid,
    budget validation, and a per-capacity Pareto filter (with an epsilon
    band so near-optimal designs survive to the system stage).
  * search_plan: pick (tp, pp) per phase for a fixed system. Prefill is
    ranked by the traversal latency of one request through the pipeline,
    decode by the steady-state beat time of the slowest stage, so the two
    phases generally land on different shapes. Each phase's shapes are
    ranked in one table, costing each TP width once, on
    `mapping.cached_tp_group`, the grouping the winning plan is built on, so
    every (pool, tp) is grouped once per process.
  * system_dse: budgeted search over (prefill chiplet, decode chiplet,
    pool counts). Exhaustive when the space fits the simulation budget,
    otherwise best-first: a stratified seed wave, then waves of the untried
    grid neighbours of the best design that has any. Waves are fixed by the
    results so far, so results do not depend on worker count.

Budget here counts full serving simulations; candidates rejected by static
validation are free.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from . import ops
from .comm import EmptyGroup, allreduce_cost, link_delay, manhattan
from .hwspec import (
    ChipletSpec,
    ModelSpec,
    Role,
    SystemSpec,
    SystemValidationError,
    chiplet_violations,
    derive_chiplet_metrics,
    validate_system,
)
from .mapping import (
    CapacityExceeded,
    PdPlan,
    TooManyStages,
    build_pd_plan,
    cached_tp_group,
    estimate_layer_costs,
    group_center_coord,
    kv_headroom,
    pool_chiplet,
    pool_pe_coords,
    stage_bytes,
)
from .serving import KvOverflow, SimConfig
from .thermal import coupled_serve


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


# --- parallelism plan selection ----------------------------------------------


@dataclass(frozen=True)
class PlanChoice:
    plan: PdPlan
    prefill_tp: int
    prefill_pp: int
    decode_tp: int
    decode_pp: int
    prefill_score_s: float
    decode_score_s: float
    kv_budget_bytes: int


def _pow2_upto(n: int) -> list[int]:
    out = []
    v = 1
    while v <= n:
        out.append(v)
        v *= 2
    if out and out[-1] != n:
        out.append(n)
    return out


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _phase_shapes(pool_n: int, n_layers: int) -> list[tuple[int, list[int]]]:
    """Candidate widths, each with its stage counts: powers of two plus the
    shapes whose stage count divides the layer count evenly. Uneven layer
    splits round a stage up, which quietly dominates the decode beat time, so
    the evenly packed widths must be in the pool. Every shape has at least
    one TP group per stage."""
    tps = set(_pow2_upto(pool_n))
    for pp in _divisors(n_layers):
        if pp <= pool_n:
            tps.add(pool_n // pp)
    pps = set(_pow2_upto(n_layers)) | set(_divisors(n_layers))
    return [(tp, sorted(p for p in pps if p <= min(pool_n // tp, n_layers)))
            for tp in sorted(tps)]


def _phase_ranking(spec: SystemSpec, model: ModelSpec, role: Role,
                   phase: ops.Phase, m_tokens: int, ctx: int, temp_c: float,
                   kv_budget_bytes: int = 0) -> list[tuple[float, int, int]]:
    """Every (tp, pp) shape of a phase that fits, as (score, pp, -tp), best
    first. A shape fits when its deepest stage holds on the group slice by
    `mapping.stage_bytes`, the rule build_pd_plan checks. Everything but the
    stage count depends on tp alone, so each width is costed once.

    Prefill: one request's traversal = all layers in sequence plus a handoff
    per stage boundary. Decode: beat period of the deepest stage; transfers
    overlap the next beat so they do not enter the period.
    """
    pool = pool_pe_coords(spec, role)
    chiplet = pool_chiplet(spec, role)
    slice_b = chiplet.dram.capacity_bytes // chiplet.n_pe
    msg = m_tokens * model.d_model * model.dtype_bytes
    table = []
    for tp, pps in _phase_shapes(len(pool), model.n_layers):
        pps = [pp for pp in pps if stage_bytes(
            model, math.ceil(model.n_layers / pp), kv_budget_bytes) <= tp * slice_b]
        if not pps:
            continue
        layer_s = estimate_layer_costs(model, chiplet, phase, m_tokens, ctx, temp_c, tp)
        ar_s = 0.0
        handoff = 0.0
        if tp > 1 or pps[-1] > 1:
            groups = cached_tp_group(pool, tp, spec).groups
            first = [pool[i] for i in groups[0]]
            c0 = group_center_coord(first, spec)
            if tp > 1:
                ar_s = allreduce_cost(first, c0, msg, spec).latency_s
            if pps[-1] > 1:
                c1 = group_center_coord([pool[i] for i in groups[1]], spec)
                handoff = link_delay(msg, *manhattan(c0, c1, spec), spec)
        for pp in pps:
            if phase is ops.Phase.PREFILL:
                score = model.n_layers * (layer_s + 2.0 * ar_s) + (pp - 1) * handoff
            else:
                score = math.ceil(model.n_layers / pp) * (layer_s + 2.0 * ar_s)
            table.append((score, pp, -tp))
    if not table:
        extra = f" plus a {kv_budget_bytes} B KV budget" if kv_budget_bytes else ""
        raise CapacityExceeded(
            f"no (tp, pp) shape fits {phase.value} weights{extra} on its pool")
    return sorted(table)


def search_plan(spec: SystemSpec, model: ModelSpec, *,
                kv_budget_decode_bytes: int | None = None,
                ref_prefill_tokens: int = 512,
                ref_decode_ctx: int = 2048,
                ref_decode_batch: int = 16,
                temp_c: float = 65.0, seed: int = 0) -> PlanChoice:
    """Choose (tp, pp) per phase by the phase's own objective, then build the
    full placement for the winning pair. Only decode shapes whose every stage
    holds kv_budget_decode_bytes beside its weights are ranked, so the
    winner's plan holds the budget.

    With kv_budget_decode_bytes=None the budget is set to the headroom the
    chosen decode placement actually has, and returned for the serving config.
    """
    kv_budget = kv_budget_decode_bytes or 0
    ps, ppp, ptp = _phase_ranking(spec, model, Role.PREFILL, ops.Phase.PREFILL,
                                  ref_prefill_tokens, ref_prefill_tokens, temp_c)[0]
    ds, dpp, dtp = _phase_ranking(spec, model, Role.DECODE, ops.Phase.DECODE,
                                  ref_decode_batch, ref_decode_ctx, temp_c, kv_budget)[0]
    plan = build_pd_plan(
        spec, model,
        tp_prefill=-ptp, pp_prefill=ppp, tp_decode=-dtp, pp_decode=dpp,
        kv_budget_decode_bytes=kv_budget, seed=seed, ref_tokens=ref_prefill_tokens)
    budget = kv_budget_decode_bytes
    if budget is None:
        budget = kv_headroom(plan.decode, spec, model)
    return PlanChoice(
        plan=plan,
        prefill_tp=-ptp, prefill_pp=ppp,
        decode_tp=-dtp, decode_pp=dpp,
        prefill_score_s=ps, decode_score_s=ds,
        kv_budget_bytes=budget,
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

    def rejected(violations: Iterable[str], simulated: bool = False,
                 **kw) -> DesignEval:
        defaults = dict(tokens_per_joule=0.0, throughput_tok_s=0.0,
                        ttft_p95_s=math.inf, tbt_p95_s=math.inf,
                        t_max_c=math.inf, peak_power_w=math.inf)
        defaults.update(kw)
        return DesignEval(point=point, feasible=False,
                          violations=tuple(violations), simulated=simulated,
                          **defaults)

    spec = build_system(template, pc_candidates[point.pc],
                        dc_candidates[point.dc], point.n_pc, point.n_dc)
    try:
        peak_power_w = validate_system(spec, model)
    except SystemValidationError as e:
        return rejected(sorted({v.kind for v in e.violations}))
    try:
        choice = search_plan(spec, model, kv_budget_decode_bytes=cfg.kv_budget_bytes,
                             temp_c=temp_c, seed=seed)
    except (CapacityExceeded, EmptyGroup, TooManyStages) as e:
        return rejected([type(e).__name__])
    run_cfg = replace(cfg, kv_budget_bytes=choice.kv_budget_bytes)
    try:
        metrics, thermal = coupled_serve(spec, model, choice.plan, trace,
                                         run_cfg, start_temp_c=temp_c)
    except KvOverflow:
        return rejected(["KvCapacity"], simulated=True)
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
