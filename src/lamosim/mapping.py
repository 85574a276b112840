"""Parallelism mapping: tensor-parallel PE grouping, pipeline-stage
placement, the capacity rule, and the per-phase (tp, pp) plan search.

Grouping solves, over a pool of PE coordinates, the partition of floor(P/tp)
ordered groups of exactly tp PEs each (spares stay idle) minimizing

    J = sum_k span(k) + w_inter * sum_k dist(center_k, center_{k+1})

where span is the bounding-box half-perimeter (x extent + y extent) and
centers are bounding-box midpoints. The solver is exact branch-and-bound up
to `EXACT_LIMIT` PEs (greedy box-tiling incumbent, per-group span lower
bounds, reversal symmetry break; with w_inter == 0 full label symmetry is
broken instead by pinning the lowest PE into the first group). Larger pools
fall back to the greedy tiler plus pairwise-swap refinement and report
proven_optimal=False; refinement scores each trial swap on the two groups it
touches, their boxes and the chain edges at them. `cached_tp_group`
memoizes the default-weight grouping process-wide per (pool coordinates in
order, tp), so a plan search groups each (pool, tp) once.

Stage placement assigns pipeline stages to groups by simulated annealing over
swap/move neighborhoods (geometric cooling, never worse than its greedy
start, each trial O(stages) on any pool). Its objective is the latency the
assignment decides: two all-reduces per layer on each stage's group plus the
activation handoffs between consecutive stages. Stage compute is the same on
every group and so adds one constant to every assignment; placement leaves it
out and runs no dataflow search. A phase (a `Role`) runs on its role's pool,
of the one chiplet type `pool_chiplet` returns. Plan assembly checks every
stage's weight shard plus KV budget share (`stage_bytes`, the one capacity
rule) against tp pool-PE DRAM slices (`_group_capacity_bytes`);
`kv_headroom` inverts that check, to within the bytes its floor division
admits. The KV destination table `PdPlan.kv_dest` names the decode PE each
prefill PE sends each layer's KV to: prefill shard i sends to shard
i * tp_decode // tp_prefill of the layer's decode stage.

Plan search (`search_plan`) ranks each phase's (tp, pp) shapes that pass
`stage_bytes` by the phase's own objective, costing each width once on the
grouping the winner is then placed on. `_group_costs` prices a group's center
PE and all-reduce for ranking and placement alike.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass

from . import dataflow, ops
from .compute import vpu_cycles
from .comm import EmptyGroup, MeshCoord, allreduce_cost, link_delay, manhattan
from .hwspec import ChipletSpec, Infeasible, ModelSpec, Role, SystemSpec

Coord = tuple[int, int]
EXACT_LIMIT = 10  # largest pool tp_group solves exactly
SWAP_ROUNDS = 20  # most passes of _swap_refine over all group pairs


class TooManyStages(Infeasible, ValueError):
    """More pipeline stages than available groups, or than model layers."""


class CapacityExceeded(Infeasible):
    """A stage's weights plus KV budget overflow its group's DRAM slice."""


@dataclass(frozen=True)
class TpGrouping:
    """Ordered chain of equal-size index groups over the input coords."""

    groups: tuple[tuple[int, ...], ...]
    spares: tuple[int, ...]
    objective: float
    proven_optimal: bool


def _span(coords: list[Coord]) -> int:
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _center(coords: list[Coord]) -> tuple[float, float]:
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    return (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0


def _cdist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def grouping_objective(coords: list[Coord], groups: list[tuple[int, ...]],
                       w_inter: float) -> float:
    total = 0.0
    centers = []
    for g in groups:
        pts = [coords[i] for i in g]
        total += _span(pts)
        centers.append(_center(pts))
    for a, b in zip(centers, centers[1:]):
        total += w_inter * _cdist(a, b)
    return total


def _min_span(tp: int) -> int:
    """Smallest bounding-box half-perimeter any tp grid points can have."""
    best = tp - 1
    for w in range(1, tp + 1):
        h = math.ceil(tp / w)
        best = min(best, (w - 1) + (h - 1))
    return best


def _greedy_groups(coords: list[Coord], tp: int, k: int) -> list[tuple[int, ...]]:
    """Box-tile the pool row-major into tp-sized groups, boustrophedon chain."""
    best_wh = (tp, 1)
    best_s = tp - 1
    for w in range(1, tp + 1):
        if tp % w:
            continue
        h = tp // w
        s = (w - 1) + (h - 1)
        if s < best_s or (s == best_s and w > best_wh[0]):
            best_wh, best_s = (w, h), s
    w, h = best_wh
    order = sorted(range(len(coords)),
                   key=lambda i: (coords[i][1] // h, coords[i][0] // w,
                                  coords[i][1], coords[i][0]))
    groups = [tuple(sorted(order[j * tp:(j + 1) * tp])) for j in range(k)]
    # Chain groups greedily by center proximity (nearest neighbor).
    remaining = list(range(k))
    chain = [remaining.pop(0)]
    centers = [_center([coords[i] for i in g]) for g in groups]
    while remaining:
        last = centers[chain[-1]]
        nxt = min(remaining, key=lambda gi: (_cdist(last, centers[gi]), gi))
        remaining.remove(nxt)
        chain.append(nxt)
    return [groups[gi] for gi in chain]


def _extremes(pts: list[Coord]) -> tuple[float, ...]:
    """Two smallest and two largest x, then the same for y, of one group.

    Without one member at an extreme the second value is the extreme, so a
    group's box without any one member follows in O(1). A single point pads
    the second values with infinities: the rest of its group is empty.
    """
    out: list[float] = []
    for vals in (sorted(p[0] for p in pts), sorted(p[1] for p in pts)):
        if len(vals) > 1:
            out += (vals[0], vals[1], vals[-1], vals[-2])
        else:
            out += (vals[0], math.inf, vals[0], -math.inf)
    return tuple(out)


def _moved(e: tuple[float, ...], x: int, y: int, nx: int, ny: int) -> tuple:
    """(span, doubled center x, doubled center y) of the group with extremes
    `e` after its member (x, y) leaves and (nx, ny) joins."""
    x1, x2, hx1, hx2, y1, y2, hy1, hy2 = e
    lo_x = x2 if x == x1 else x1
    hi_x = hx2 if x == hx1 else hx1
    lo_y = y2 if y == y1 else y1
    hi_y = hy2 if y == hy1 else hy1
    lo_x = nx if nx < lo_x else lo_x
    hi_x = nx if nx > hi_x else hi_x
    lo_y = ny if ny < lo_y else lo_y
    hi_y = ny if ny > hi_y else hi_y
    return hi_x - lo_x + hi_y - lo_y, lo_x + hi_x, lo_y + hi_y


def _edges2(a: tuple, b: tuple, near_a: list[tuple], near_b: list[tuple],
            adjacent: bool) -> int:
    """Doubled center distance summed over the chain edges at two groups with
    boxes a and b, given their other chain neighbors' boxes."""
    total = abs(a[1] - b[1]) + abs(a[2] - b[2]) if adjacent else 0
    for _, cx, cy in near_a:
        total += abs(a[1] - cx) + abs(a[2] - cy)
    for _, cx, cy in near_b:
        total += abs(b[1] - cx) + abs(b[2] - cy)
    return total


def _swap_refine(coords: list[Coord], groups: list[tuple[int, ...]],
                 w_inter: float) -> list[tuple[int, ...]]:
    """First-improvement pairwise member swaps: SWAP_ROUNDS passes at most.

    A swap moves only the two touched groups' boxes and the chain edges at
    those groups, so each trial is scored on them alone: every group keeps its
    span, its doubled box center (integers) and its `_extremes`. At w_inter 0
    and 0.5 every term is a multiple of 0.25 and exact in float64, so each
    accept matches a rescoring of the whole grouping with
    `grouping_objective`.
    """
    groups = [list(g) for g in groups]
    k = len(groups)
    half = w_inter / 2
    ext = [_extremes([coords[i] for i in g]) for g in groups]
    # Per group: span, doubled center x, doubled center y.
    box = [(e[2] - e[0] + e[6] - e[4], e[0] + e[2], e[4] + e[6]) for e in ext]

    for _ in range(SWAP_ROUNDS):
        improved = False
        for ka, kb in itertools.combinations(range(k), 2):
            ga, gb = groups[ka], groups[kb]
            # Chain neighbors outside the pair; an adjacent pair shares one edge.
            near_a = [box[j] for j in (ka - 1, ka + 1) if 0 <= j < k and j != kb]
            near_b = [box[j] for j in (kb - 1, kb + 1) if j < k and j != ka]
            adjacent = kb == ka + 1
            span = box[ka][0] + box[kb][0]
            edge2 = _edges2(box[ka], box[kb], near_a, near_b, adjacent)
            for ia in range(len(ga)):
                ax, ay = coords[ga[ia]]
                for ib in range(len(gb)):
                    bx, by = coords[gb[ib]]
                    new_a = _moved(ext[ka], ax, ay, bx, by)
                    new_b = _moved(ext[kb], bx, by, ax, ay)
                    new_edge2 = _edges2(new_a, new_b, near_a, near_b, adjacent)
                    if new_a[0] + new_b[0] - span + half * (new_edge2 - edge2) < -1e-12:
                        ga[ia], gb[ib] = gb[ib], ga[ia]
                        ext[ka] = _extremes([coords[i] for i in ga])
                        ext[kb] = _extremes([coords[i] for i in gb])
                        box[ka], box[kb] = new_a, new_b
                        span, edge2 = new_a[0] + new_b[0], new_edge2
                        ax, ay = bx, by
                        improved = True
        if not improved:
            break
    return [tuple(sorted(g)) for g in groups]


def _exact_groups(coords: list[Coord], tp: int, k: int, w_inter: float,
                  incumbent: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Depth-first branch and bound over ordered group chains."""
    n = len(coords)
    best_obj = grouping_objective(coords, incumbent, w_inter)
    best = list(incumbent)
    lb_group = _min_span(tp)
    pin_first = w_inter == 0.0  # label symmetry: lowest PE opens the chain

    combo_cache: dict[frozenset[int], list[tuple[tuple[int, ...], int, tuple[float, float]]]] = {}

    def combos_from(avail: frozenset[int]) -> list[tuple[tuple[int, ...], int, tuple[float, float]]]:
        got = combo_cache.get(avail)
        if got is None:
            got = []
            for c in itertools.combinations(sorted(avail), tp):
                pts = [coords[i] for i in c]
                got.append((c, _span(pts), _center(pts)))
            got.sort(key=lambda t: (t[1], t[0]))
            combo_cache[avail] = got
        return got

    chain: list[tuple[int, ...]] = []

    def dfs(avail: frozenset[int], cost: float, prev_center: tuple[float, float] | None) -> None:
        nonlocal best_obj, best
        depth = len(chain)
        if depth == k:
            # Reversal symmetry: the mirrored chain has equal cost.
            if k > 1 and min(chain[0]) > min(chain[-1]):
                return
            if cost < best_obj - 1e-12:
                best_obj = cost
                best = list(chain)
            return
        remaining_lb = (k - depth) * lb_group
        if cost + remaining_lb >= best_obj - 1e-12:
            return
        for c, span, center in combos_from(avail):
            if pin_first and depth == 0 and c[0] != min(avail):
                continue
            step = span + (w_inter * _cdist(prev_center, center) if prev_center else 0.0)
            new_cost = cost + step
            if new_cost + (k - depth - 1) * lb_group >= best_obj - 1e-12:
                if prev_center is None:
                    break  # combos sorted by span: no later one can be cheaper
                continue
            chain.append(c)
            dfs(avail - frozenset(c), new_cost, center)
            chain.pop()

    dfs(frozenset(range(n)), 0.0, None)
    return best


def tp_group(coords: list[Coord], tp: int, w_inter: float = 0.5) -> TpGrouping:
    """Partition a PE pool into floor(P/tp) chained groups of tp PEs.

    Exact (branch and bound) up to EXACT_LIMIT PEs; greedy tiling plus swap
    refinement beyond that, flagged via proven_optimal.
    """
    if tp < 1:
        raise ValueError("tp must be >= 1")
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate PE coordinates in pool")
    p = len(coords)
    k = p // tp
    if k == 0:
        raise EmptyGroup(f"pool of {p} PEs cannot form a group of {tp}")
    coords = list(coords)
    greedy = _greedy_groups(coords, tp, k)
    if p <= EXACT_LIMIT:
        groups = _exact_groups(coords, tp, k, w_inter, greedy)
        proven = True
    else:
        groups = _swap_refine(coords, greedy, w_inter)
        proven = False
    assigned = set(itertools.chain.from_iterable(groups))
    spares = tuple(sorted(set(range(p)) - assigned))
    return TpGrouping(
        groups=tuple(tuple(sorted(g)) for g in groups),
        spares=spares,
        objective=grouping_objective(coords, list(groups), w_inter),
        proven_optimal=proven,
    )


# --- pipeline stage placement -----------------------------------------------

_ANNEAL_ITERS = 200  # trial moves per temperature
_ANNEAL_COOLING = 0.95


@dataclass(frozen=True)
class StagePlacement:
    """Injective stage -> group assignment with its objective history."""

    stage_groups: tuple[int, ...]
    layer_bounds: tuple[tuple[int, int], ...]  # [lo, hi) per stage
    objective: float
    greedy_objective: float


def _layer_partition(n_layers: int, n_stages: int) -> list[tuple[int, int]]:
    bounds = [round(i * n_layers / n_stages) for i in range(n_stages + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(n_stages)]


def group_center_coord(members: list[MeshCoord], spec: SystemSpec) -> MeshCoord:
    """The member PE closest to the group's flattened bounding-box center."""
    flats = [flat_xy(m, spec) for m in members]
    cx, cy = _center(flats)
    best = min(zip(flats, members), key=lambda fm: (_cdist(fm[0], (cx, cy)), fm[1]))
    return best[1]


def flat_xy(mc: MeshCoord, spec: SystemSpec) -> Coord:
    """Global grid coordinate: chiplet meshes abut edge to edge."""
    c = spec.chiplet_at(mc.chip)
    return (mc.chip[0] * c.pe_cols + mc.pe[0], mc.chip[1] * c.pe_rows + mc.pe[1])


def pool_pe_coords(spec: SystemSpec, role: Role) -> list[MeshCoord]:
    out = []
    for chip in spec.coords_for_role(role):
        c = spec.chiplet_at(chip)
        for py in range(c.pe_rows):
            for px in range(c.pe_cols):
                out.append(MeshCoord(chip=chip, pe=(px, py)))
    return out


def _group_costs(groups: tuple[tuple[int, ...], ...], pool: list[MeshCoord],
                 msg_bytes: int, spec: SystemSpec) -> tuple[list[MeshCoord], list[float]]:
    """Each group's center PE and the latency of an all-reduce of msg_bytes
    around it; a one-PE group's all-reduce costs 0.0."""
    members = [[pool[i] for i in g] for g in groups]
    centers = [group_center_coord(m, spec) for m in members]
    return centers, [allreduce_cost(m, c, msg_bytes, spec).latency_s
                     for m, c in zip(members, centers)]


_groupings: dict[tuple[tuple[Coord, ...], int], TpGrouping] = {}


def cached_tp_group(pool: list[MeshCoord], tp: int, spec: SystemSpec) -> TpGrouping:
    """`tp_group` of the pool's flattened coordinates at its defaults, memoized
    process-wide. The key keeps the pool's order, since groups index into it."""
    key = (tuple(flat_xy(m, spec) for m in pool), tp)
    got = _groupings.get(key)
    if got is None:
        got = _groupings[key] = tp_group(list(key[0]), tp)
    return got


def place_stages(grouping: TpGrouping, pool: list[MeshCoord], n_stages: int,
                 n_layers: int, act_bytes: int, spec: SystemSpec,
                 seed: int) -> StagePlacement:
    """Assign pipeline stages to TP groups, minimizing the latency the
    assignment decides: two all-reduces of act_bytes per layer on each
    stage's group, plus the act_bytes handoff between consecutive stages.

    Compute is left out: a stage's tp-sharded compute time is the same on
    every group, and every stage is placed once, so it would add one constant
    to every assignment. Annealing (_ANNEAL_ITERS trials per temperature,
    geometric cooling by _ANNEAL_COOLING) never returns worse than the greedy
    assignment it starts from; a single stage keeps its greedy group.

    A trial costs O(n_stages) on any pool: the sorted list of unused groups is
    updated on accepted moves, not rebuilt per trial, with the same random
    draws and float additions in the same order, so placements are unchanged.
    """
    n_groups = len(grouping.groups)
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    if n_stages > n_groups:
        raise TooManyStages(f"{n_stages} stages but only {n_groups} groups")
    if n_layers < n_stages:
        raise TooManyStages(f"{n_stages} stages but only {n_layers} layers")

    centers, ar_cost = _group_costs(grouping.groups, pool, act_bytes, spec)
    bounds = _layer_partition(n_layers, n_stages)
    # stage_cost[s][g]: all-reduce latency of stage s when mapped onto group g
    stage_cost = [
        [(hi - lo) * 2 * ar_cost[g] for g in range(n_groups)]
        for lo, hi in bounds
    ]
    # hop counts are symmetric (comm.manhattan), so each pair is costed once
    transfer = [[0.0] * n_groups for _ in range(n_groups)]
    for ga in range(n_groups):
        for gb in range(ga + 1, n_groups):
            noc, nop = manhattan(centers[ga], centers[gb], spec)
            transfer[ga][gb] = transfer[gb][ga] = link_delay(act_bytes, noc, nop, spec)

    def objective(assign: list[int]) -> float:
        total = sum(map(list.__getitem__, stage_cost, assign))  # in stage order
        for ga, gb in zip(assign, assign[1:]):
            total += transfer[ga][gb]
        return total

    # Greedy: stages in order take the best unused group.
    assign: list[int] = []
    used: set[int] = set()
    for s in range(n_stages):
        best_g = min(
            (g for g in range(n_groups) if g not in used),
            key=lambda g: (stage_cost[s][g]
                           + (transfer[assign[-1]][g] if assign else 0.0), g),
        )
        assign.append(best_g)
        used.add(best_g)
    greedy_obj = objective(assign)
    if n_stages == 1:  # the greedy pick is already the argmin over groups
        return StagePlacement(tuple(assign), tuple(bounds), greedy_obj, greedy_obj)

    rng = random.Random(seed)
    rand, sample, randrange, exp = rng.random, rng.sample, rng.randrange, math.exp
    unused = [g for g in range(n_groups) if g not in used]  # sorted, as cur leaves them
    best, best_obj = assign[:], greedy_obj
    cur, cur_obj = assign, greedy_obj
    t0 = max(greedy_obj * 0.1, 1e-12)
    t = t0
    while t > t0 * 1e-3:
        for _ in range(_ANNEAL_ITERS):
            trial = cur[:]
            if n_groups == n_stages or rand() < 0.5:
                i, j = sample(range(n_stages), 2)
                trial[i], trial[j] = trial[j], trial[i]
                old = None
            else:  # the group is drawn before the stage it moves to
                new = unused[randrange(len(unused))]
                s = randrange(n_stages)
                old, trial[s] = trial[s], new
            trial_obj = objective(trial)
            delta = trial_obj - cur_obj
            if delta <= 0 or rand() < exp(-delta / t):
                if old is not None:
                    unused.remove(new)
                    bisect.insort(unused, old)
                cur, cur_obj = trial, trial_obj
                if cur_obj < best_obj:
                    best, best_obj = cur[:], cur_obj
        t *= _ANNEAL_COOLING
    return StagePlacement(
        stage_groups=tuple(best),
        layer_bounds=tuple(bounds),
        objective=best_obj,
        greedy_objective=greedy_obj,
    )


# --- PD plan assembly ---------------------------------------------------------


@dataclass(frozen=True)
class PhasePlan:
    phase: Role
    tp: int
    pp: int
    stage_members: tuple[tuple[MeshCoord, ...], ...]  # per stage, shard order
    stage_centers: tuple[MeshCoord, ...]
    layer_bounds: tuple[tuple[int, int], ...]
    placement: StagePlacement  # the annealer's result the stages were placed by


@dataclass(frozen=True)
class PdPlan:
    prefill: PhasePlan
    decode: PhasePlan
    # [prefill stage][member PE, shard order][layer offset in the stage]: the
    # decode PE that receives that PE's KV pages of that layer
    kv_dest: tuple[tuple[tuple[MeshCoord, ...], ...], ...]


def estimate_layer_costs(model: ModelSpec, chiplet: ChipletSpec, phase: Role,
                         m_tokens: int, ctx_len: int, temp_c: float,
                         tp: int = 1) -> float:
    """Latency of one layer's tp-shard (compute + DRAM, no collectives) on one PE."""
    batch = [(m_tokens, ctx_len)] if phase is Role.PREFILL else \
        [(1, ctx_len)] * m_tokens
    op_list = ops.layer_ops(model, tp, phase, batch)
    total = 0.0
    for op in op_list:
        if op.kind is ops.OpKind.GEMM:
            res = dataflow.cached_search(op.shape, chiplet.pe, chiplet.dram, temp_c,
                                         clock_hz=chiplet.clock_hz,
                                         dtype_bytes=model.dtype_bytes)
            total += res.cost.latency_s
        elif op.kind is ops.OpKind.VPU:
            total += vpu_cycles(op.elements, chiplet.pe) / chiplet.clock_hz
    return total


def pool_chiplet(spec: SystemSpec, role: Role) -> ChipletSpec:
    """The one chiplet type of a role's pool (SystemSpec keeps pools uniform)."""
    coords = spec.coords_for_role(role)
    if not coords:
        raise EmptyGroup(f"no {role.value} chiplets in system")
    return spec.chiplet_at(coords[0])


def _phase_plan(spec: SystemSpec, model: ModelSpec, phase: Role, tp: int, pp: int,
                seed: int, *, ref_tokens: int) -> PhasePlan:
    pool = pool_pe_coords(spec, phase)
    grouping = cached_tp_group(pool, tp, spec)
    act_bytes = ref_tokens * model.d_model * model.dtype_bytes
    placement = place_stages(grouping, pool, pp, model.n_layers, act_bytes, spec, seed)
    stage_members = tuple(
        tuple(pool[i] for i in grouping.groups[g]) for g in placement.stage_groups
    )
    centers = tuple(group_center_coord(list(m), spec) for m in stage_members)
    return PhasePlan(
        phase=phase, tp=tp, pp=pp,
        stage_members=stage_members,
        stage_centers=centers,
        layer_bounds=placement.layer_bounds,
        placement=placement,
    )


def _group_capacity_bytes(spec: SystemSpec, phase: Role, tp: int) -> int:
    """DRAM slice of a tp-PE group of the phase's pool: tp vertical PE slices."""
    c = pool_chiplet(spec, phase)
    return tp * (c.dram.capacity_bytes // c.n_pe)


def stage_bytes(model: ModelSpec, layers: int, kv_budget_bytes: int = 0) -> int:
    """DRAM a pipeline stage of `layers` layers needs on its group's slice: its
    weight shard plus its layer share of the decode KV budget. The one
    capacity rule: build_pd_plan checks it against _group_capacity_bytes,
    kv_headroom inverts it and _phase_ranking ranks (tp, pp) shapes by it."""
    return (layers * model.weights_per_layer() * model.dtype_bytes
            + kv_budget_bytes * layers // model.n_layers)


def kv_headroom(plan: PhasePlan, spec: SystemSpec, model: ModelSpec) -> int:
    """Largest KV budget B whose exact layer share B * L / N fits beside the
    weights on every stage of the plan (L the stage's layers, N the model's):
    the inverse of build_pd_plan's capacity check. That check floors the
    share (stage_bytes), so it also admits a few larger budgets, each fewer
    than N/L + 1 bytes above this one, L being the fewest layers any stage
    holds."""
    cap = _group_capacity_bytes(spec, plan.phase, plan.tp)
    return max(0, min((cap - stage_bytes(model, hi - lo)) * model.n_layers // (hi - lo)
                      for lo, hi in plan.layer_bounds))


def build_pd_plan(spec: SystemSpec, model: ModelSpec, *,
                  tp_prefill: int, pp_prefill: int, tp_decode: int, pp_decode: int,
                  kv_budget_decode_bytes: int, seed: int = 0,
                  ref_tokens: int = 512) -> PdPlan:
    """Build and validate a disaggregated prefill/decode mapping.

    Every stage's weight shard plus its KV budget share (none for prefill)
    must fit the group's DRAM slice; violations raise CapacityExceeded
    naming the stage.
    """
    prefill = _phase_plan(spec, model, Role.PREFILL, tp_prefill, pp_prefill, seed,
                          ref_tokens=ref_tokens)
    decode = _phase_plan(spec, model, Role.DECODE, tp_decode, pp_decode, seed + 1,
                         ref_tokens=1)
    for plan, kv_budget in ((prefill, 0), (decode, kv_budget_decode_bytes)):
        cap = _group_capacity_bytes(spec, plan.phase, plan.tp)
        for s, (lo, hi) in enumerate(plan.layer_bounds):
            need = stage_bytes(model, hi - lo, kv_budget)
            if need > cap:
                raise CapacityExceeded(
                    f"{plan.phase.value} stage {s}: needs {need} B "
                    f"(layers {lo}..{hi}), group slice holds {cap} B")
    # each layer's decode-stage members; prefill shard i sends its KV to
    # decode shard i * tp_decode // tp_prefill of the layer's decode stage
    dec_members = [m for (lo, hi), m in zip(decode.layer_bounds, decode.stage_members)
                   for _ in range(lo, hi)]
    kv_dest = tuple(
        tuple(tuple(dec_members[layer][i * tp_decode // tp_prefill]
                    for layer in range(lo, hi))
              for i in range(tp_prefill))
        for lo, hi in prefill.layer_bounds)
    return PdPlan(prefill=prefill, decode=decode, kv_dest=kv_dest)


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


def _phase_shapes(pool_n: int, n_layers: int) -> list[tuple[int, list[int]]]:
    """Candidate widths, each with its stage counts: powers of two plus the
    shapes whose stage count divides the layer count evenly. Uneven layer
    splits round a stage up, which quietly dominates the decode beat time, so
    the evenly packed widths must be in the pool. Every shape has at least
    one TP group per stage."""
    divisors = [d for d in range(1, n_layers + 1) if n_layers % d == 0]
    tps = set(dataflow.pow2_candidates(pool_n))
    tps |= {pool_n // pp for pp in divisors if pp <= pool_n}
    pps = set(dataflow.pow2_candidates(n_layers)) | set(divisors)
    return [(tp, sorted(p for p in pps if p <= min(pool_n // tp, n_layers)))
            for tp in sorted(tps)]


def _phase_ranking(spec: SystemSpec, model: ModelSpec, phase: Role, m_tokens: int,
                   ctx: int, temp_c: float,
                   kv_budget_bytes: int = 0) -> list[tuple[float, int, int]]:
    """Every (tp, pp) shape of a phase that fits, as (score, pp, -tp), best
    first. A shape fits when its deepest stage holds on the group slice by
    `stage_bytes` and `_group_capacity_bytes`, the rule build_pd_plan checks.
    Everything but the stage count depends on tp alone, so each width is
    costed once, on the first two groups of `cached_tp_group`, the grouping
    build_pd_plan places on.

    Prefill: one request's traversal = all layers in sequence plus a handoff
    per stage boundary. Decode: beat period of the deepest stage; transfers
    overlap the next beat so they do not enter the period.
    """
    pool = pool_pe_coords(spec, phase)
    chiplet = pool_chiplet(spec, phase)
    msg = m_tokens * model.d_model * model.dtype_bytes
    table = []
    for tp, pps in _phase_shapes(len(pool), model.n_layers):
        cap = _group_capacity_bytes(spec, phase, tp)
        pps = [pp for pp in pps if stage_bytes(
            model, math.ceil(model.n_layers / pp), kv_budget_bytes) <= cap]
        if not pps:
            continue
        layer_s = estimate_layer_costs(model, chiplet, phase, m_tokens, ctx, temp_c, tp)
        centers, ar = _group_costs(cached_tp_group(pool, tp, spec).groups[:2], pool,
                                   msg, spec)
        handoff = link_delay(msg, *manhattan(*centers, spec), spec) if pps[-1] > 1 else 0.0
        for pp in pps:
            if phase is Role.PREFILL:
                score = model.n_layers * (layer_s + 2.0 * ar[0]) + (pp - 1) * handoff
            else:
                score = math.ceil(model.n_layers / pp) * (layer_s + 2.0 * ar[0])
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
    ps, ppp, ptp = _phase_ranking(spec, model, Role.PREFILL, ref_prefill_tokens,
                                  ref_prefill_tokens, temp_c)[0]
    ds, dpp, dtp = _phase_ranking(spec, model, Role.DECODE, ref_decode_batch,
                                  ref_decode_ctx, temp_c, kv_budget)[0]
    plan = build_pd_plan(
        spec, model,
        tp_prefill=-ptp, pp_prefill=ppp, tp_decode=-dtp, pp_decode=dpp,
        kv_budget_decode_bytes=kv_budget, seed=seed, ref_tokens=ref_prefill_tokens)
    budget = kv_budget_decode_bytes
    if budget is None:
        budget = kv_headroom(plan.decode, spec, model)
    return PlanChoice(plan=plan, prefill_tp=-ptp, prefill_pp=ppp, decode_tp=-dtp,
                      decode_pp=dpp, prefill_score_s=ps, decode_score_s=ds,
                      kv_budget_bytes=budget)
