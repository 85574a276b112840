"""Grouping and stage placement vs. exhaustive enumeration.

The grouping oracle enumerates every ordered chain of tp-sized groups over the
pool (spares implicit) and scores it with its own span/center arithmetic; the
placement oracle enumerates every injective stage->group assignment and scores
it with independently recomputed collective and transfer costs. Swap
refinement is checked against `_swap_refine` below, which rescores the whole
grouping with `grouping_objective` for every trial swap, and the annealer
against `rebuilding_place_stages`, which rebuilds its unused-group list for
every trial move: their placements must be equal, not just as good.
"""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path

import pytest

from conftest import make_chiplet, make_model, make_system
import lamosim
from lamosim import mapping, ops
from lamosim.comm import allreduce_cost, link_delay, manhattan
from lamosim.hwspec import Role, load_system
from lamosim.mapping import (
    CapacityExceeded,
    Coord,
    EmptyGroup,
    TooManyStages,
    build_pd_plan,
    cached_tp_group,
    estimate_layer_costs,
    flat_xy,
    group_center_coord,
    grouping_objective,
    kv_headroom,
    place_stages,
    pool_pe_coords,
    tp_group,
)


def brute_grouping_obj(coords, tp, w_inter):
    """Minimum objective over all ordered chains of floor(P/tp) groups."""
    k = len(coords) // tp
    best = math.inf

    def rec(avail, chain):
        nonlocal best
        if len(chain) == k:
            obj = 0.0
            centers = []
            for g in chain:
                xs = [coords[i][0] for i in g]
                ys = [coords[i][1] for i in g]
                obj += (max(xs) - min(xs)) + (max(ys) - min(ys))
                centers.append(((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2))
            for a, b in zip(centers, centers[1:]):
                obj += w_inter * (abs(a[0] - b[0]) + abs(a[1] - b[1]))
            best = min(best, obj)
            return
        for c in itertools.combinations(sorted(avail), tp):
            rec(avail - set(c), chain + [c])

    rec(frozenset(range(len(coords))), [])
    return best


def mesh(w, h):
    return [(x, y) for y in range(h) for x in range(w)]


@pytest.mark.parametrize("coords,tp", [
    (mesh(3, 3), 2),
    (mesh(3, 3), 3),
    (mesh(4, 2), 2),
    (mesh(2, 4), 3),
    ([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2)], 2),
])
@pytest.mark.parametrize("w_inter", [0.0, 0.5])
def test_grouping_matches_exhaustive(coords, tp, w_inter):
    got = tp_group(coords, tp, w_inter)
    assert got.proven_optimal
    want = brute_grouping_obj(coords, tp, w_inter)
    assert got.objective == pytest.approx(want, abs=1e-12)
    # Reported objective is consistent with the reported groups.
    assert got.objective == pytest.approx(
        grouping_objective(list(coords), list(got.groups), w_inter), abs=1e-12)


def test_grouping_partition_properties():
    coords = mesh(3, 3)
    g = tp_group(coords, 2, 0.5)
    assert len(g.groups) == 4
    assert len(g.spares) == 1
    seen = sorted(itertools.chain(g.spares, *g.groups))
    assert seen == list(range(9))
    assert all(len(grp) == 2 for grp in g.groups)


def test_grouping_tp1_chain():
    # Singleton groups have zero span; only the chain distance matters, and a
    # snake path over a 2x2 mesh costs 3 hops.
    g = tp_group(mesh(2, 2), 1, 0.5)
    assert g.objective == pytest.approx(0.5 * 3)
    assert g.spares == ()


def test_grouping_errors():
    with pytest.raises(EmptyGroup):
        tp_group([(0, 0), (1, 0)], 4)
    with pytest.raises(ValueError):
        tp_group([(0, 0), (0, 0)], 1)
    with pytest.raises(ValueError):
        tp_group(mesh(2, 2), 0)


def test_grouping_fallback_close_to_exact(monkeypatch):
    coords = mesh(4, 3)
    monkeypatch.setattr(mapping, "EXACT_LIMIT", 12)
    exact = tp_group(coords, 4, 0.5)
    assert exact.proven_optimal
    monkeypatch.setattr(mapping, "EXACT_LIMIT", 10)
    fallback = tp_group(coords, 4, 0.5)
    assert not fallback.proven_optimal
    assert fallback.objective >= exact.objective - 1e-12
    assert fallback.objective <= exact.objective * 1.5 + 1e-12


def test_grouping_heuristic_prefers_compact_boxes(monkeypatch):
    # 4x4 mesh, tp=4: sixteen PEs tile into four 2x2 boxes of span 2 each.
    monkeypatch.setattr(mapping, "EXACT_LIMIT", 4)
    g = tp_group(mesh(4, 4), 4, 0.0)
    assert not g.proven_optimal
    assert g.objective == pytest.approx(4 * 2)


@pytest.mark.parametrize("pe_side", [2, 4])  # 8-PE and 16-PE pools
@pytest.mark.parametrize("tp", [1, 2, 3, 4])
def test_cached_grouping_equals_fresh(pe_side, tp, monkeypatch):
    """Both sides of the exact limit: the memo returns tp_group at its
    defaults over the pool's flattened coordinates, in pool order."""
    monkeypatch.setattr(mapping, "_groupings", {})
    n_chips = 2 if pe_side == 2 else 1
    spec = make_system(
        chiplet_types={"pc": make_chiplet(Role.PREFILL, pe_rows=pe_side, pe_cols=pe_side),
                       "dc": make_chiplet(Role.DECODE)},
        placement={**{(x, 0): "pc" for x in range(n_chips)}, (n_chips, 0): "dc"})
    pool = pool_pe_coords(spec, Role.PREFILL)
    assert len(pool) == {2: 8, 4: 16}[pe_side]
    got = cached_tp_group(pool, tp, spec)
    assert got == tp_group([flat_xy(m, spec) for m in pool], tp)
    assert got.proven_optimal is (len(pool) <= 10)
    assert cached_tp_group(pool, tp, spec) is got


def _swap_refine(coords: list[Coord], groups: list[tuple[int, ...]],
                 w_inter: float, max_rounds: int = 20) -> list[tuple[int, ...]]:
    """First-improvement pairwise member swaps until a local optimum."""
    groups = [list(g) for g in groups]
    for _ in range(max_rounds):
        improved = False
        base = grouping_objective(coords, [tuple(sorted(g)) for g in groups], w_inter)
        for ka, kb in itertools.combinations(range(len(groups)), 2):
            for ia in range(len(groups[ka])):
                for ib in range(len(groups[kb])):
                    groups[ka][ia], groups[kb][ib] = groups[kb][ib], groups[ka][ia]
                    trial = grouping_objective(
                        coords, [tuple(sorted(g)) for g in groups], w_inter)
                    if trial < base - 1e-12:
                        base = trial
                        improved = True
                    else:
                        groups[ka][ia], groups[kb][ib] = groups[kb][ib], groups[ka][ia]
        if not improved:
            break
    return [tuple(sorted(g)) for g in groups]


def random_pool(seed: int) -> list[Coord]:
    """11 to 40 distinct cells of a random rectangle, in random order: an
    irregular pool with holes."""
    rng = random.Random(seed)
    width, height = rng.randint(4, 9), rng.randint(3, 8)
    cells = [(x, y) for y in range(height) for x in range(width)]
    return rng.sample(cells, rng.randint(11, min(40, len(cells))))


@pytest.mark.parametrize("seed", [2, 6, 3])  # pools of 11, 18 and 28 PEs
def test_swap_refine_matches_full_rescoring(seed):
    """Scoring each trial swap on the two groups it touches accepts exactly
    the swaps that rescoring the whole grouping accepts, from greedy and from
    shuffled starts."""
    pool = random_pool(seed)
    rng = random.Random(seed)
    for tp in range(1, len(pool) + 1):
        k = len(pool) // tp
        shuffled = rng.sample(range(len(pool)), len(pool))
        starts = (mapping._greedy_groups(pool, tp, k),
                  [tuple(shuffled[j * tp:(j + 1) * tp]) for j in range(k)])
        for start, w_inter in itertools.product(starts, (0.0, 0.5)):
            assert mapping._swap_refine(pool, start, w_inter) == \
                _swap_refine(pool, start, w_inter), (tp, w_inter)


@pytest.mark.parametrize("role,tp", [(Role.PREFILL, 8), (Role.DECODE, 16)])
def test_reference_grouping_matches_full_rescoring(role, tp, monkeypatch):
    """system_ref's 80-PE prefill and 128-PE decode pools: tp_group scores its
    grouping once, after refinement, and equals the full-rescoring oracle."""
    spec = load_system(str(Path(lamosim.__file__).parent / "configs" / "system_ref.json"))
    pool = [flat_xy(m, spec) for m in pool_pe_coords(spec, role)]
    calls = []

    def counted(*args):
        calls.append(args)
        return grouping_objective(*args)

    monkeypatch.setattr(mapping, "grouping_objective", counted)
    got = tp_group(pool, tp)
    assert len(calls) == 1
    want = _swap_refine(pool, mapping._greedy_groups(pool, tp, len(pool) // tp), 0.5)
    assert got.groups == tuple(want)
    assert got.objective == grouping_objective(pool, want, 0.5)


# --- stage placement ----------------------------------------------------------


def placement_objective(assign, grouping, pool, n_layers, act_bytes, spec):
    """Independent recomputation of the stage-placement objective."""
    members = [[pool[i] for i in g] for g in grouping.groups]
    centers = [group_center_coord(m, spec) for m in members]
    n_stages = len(assign)
    bounds = [(round(s * n_layers / n_stages), round((s + 1) * n_layers / n_stages))
              for s in range(n_stages)]
    total = 0.0
    for s, g in enumerate(assign):
        lo, hi = bounds[s]
        ar = allreduce_cost(members[g], centers[g], act_bytes,
                            spec).latency_s if len(members[g]) > 1 else 0.0
        total += (hi - lo) * 2 * ar
    for s in range(n_stages - 1):
        noc, nop = manhattan(centers[assign[s]], centers[assign[s + 1]], spec)
        total += link_delay(act_bytes, noc, nop, spec)
    return total


def test_place_stages_matches_brute_force():
    spec = make_system()
    pool = pool_pe_coords(spec, Role.PREFILL)
    assert len(pool) == 8
    flats = [(m.chip[0] * 2 + m.pe[0], m.chip[1] * 2 + m.pe[1]) for m in pool]
    # One stage skips annealing; at tp=3 the two groups' all-reduces differ.
    for tp, n_stages in ((2, 1), (3, 1), (2, 3)):
        grouping = tp_group(flats, tp, 0.5)
        placed = place_stages(grouping, pool, n_stages, n_layers=6, act_bytes=4096,
                              spec=spec, seed=7)
        best = min(
            placement_objective(list(a), grouping, pool, 6, 4096, spec)
            for a in itertools.permutations(range(len(grouping.groups)), n_stages)
        )
        assert best > 0
        assert placed.objective == pytest.approx(best, rel=1e-12)
        assert placed.objective == pytest.approx(placement_objective(
            list(placed.stage_groups), grouping, pool, 6, 4096, spec), rel=1e-12)
        assert placed.objective <= placed.greedy_objective + 1e-18


def test_place_stages_never_worse_than_greedy():
    spec = make_system()
    pool = pool_pe_coords(spec, Role.DECODE)
    flats = [(m.chip[0] * 2 + m.pe[0], m.chip[1] * 2 + m.pe[1]) for m in pool]
    grouping = tp_group(flats, 2, 0.5)
    for seed in range(5):
        placed = place_stages(grouping, pool, 4, n_layers=8, act_bytes=1024,
                              spec=spec, seed=seed)
        assert placed.objective <= placed.greedy_objective + 1e-18


def test_place_stages_layer_bounds():
    spec = make_system()
    pool = pool_pe_coords(spec, Role.PREFILL)
    flats = [(m.chip[0] * 2 + m.pe[0], m.chip[1] * 2 + m.pe[1]) for m in pool]
    grouping = tp_group(flats, 2, 0.5)
    placed = place_stages(grouping, pool, 3, n_layers=7, act_bytes=64,
                          spec=spec, seed=0)
    assert placed.layer_bounds == ((0, 2), (2, 5), (5, 7))
    groups = placed.stage_groups
    assert len(set(groups)) == len(groups)


def test_place_stages_errors():
    spec = make_system()
    pool = pool_pe_coords(spec, Role.PREFILL)
    flats = [(m.chip[0] * 2 + m.pe[0], m.chip[1] * 2 + m.pe[1]) for m in pool]
    grouping = tp_group(flats, 4, 0.5)  # 2 groups
    with pytest.raises(TooManyStages):
        place_stages(grouping, pool, 3, n_layers=4, act_bytes=0, spec=spec, seed=0)
    with pytest.raises(ValueError):
        place_stages(grouping, pool, 2, n_layers=1, act_bytes=0, spec=spec, seed=0)


def rebuilding_place_stages(grouping, pool, n_stages, n_layers, act_bytes, spec, seed):
    """The annealer as it was before its trials were made independent of the
    pool size: it rebuilds the unused-group list on every move trial, fills
    both halves of the handoff matrix, and copies lists with list()."""
    n_groups = len(grouping.groups)
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    if n_stages > n_groups:
        raise TooManyStages(f"{n_stages} stages but only {n_groups} groups")
    if n_layers < n_stages:
        raise ValueError("need at least one layer per stage")

    members_by_group = [
        [pool[i] for i in g] for g in grouping.groups
    ]
    centers = [group_center_coord(m, spec) for m in members_by_group]
    ar_cost = [
        allreduce_cost(members, center, act_bytes, spec).latency_s
        for members, center in zip(members_by_group, centers)
    ]
    bounds = mapping._layer_partition(n_layers, n_stages)
    # stage_cost[s][g]: all-reduce latency of stage s when mapped onto group g
    stage_cost = [
        [(hi - lo) * 2 * ar_cost[g] for g in range(n_groups)]
        for lo, hi in bounds
    ]
    transfer = [[0.0] * n_groups for _ in range(n_groups)]
    for ga in range(n_groups):
        for gb in range(n_groups):
            if ga == gb:
                continue
            noc, nop = manhattan(centers[ga], centers[gb], spec)
            transfer[ga][gb] = link_delay(act_bytes, noc, nop, spec)

    def objective(assign: list[int]) -> float:
        total = sum(stage_cost[s][g] for s, g in enumerate(assign))
        for s in range(len(assign) - 1):
            total += transfer[assign[s]][assign[s + 1]]
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
        return mapping.StagePlacement(tuple(assign), tuple(bounds), greedy_obj, greedy_obj)

    rng = random.Random(seed)
    best = list(assign)
    best_obj = greedy_obj
    cur = list(assign)
    cur_obj = greedy_obj
    t0 = max(greedy_obj * 0.1, 1e-12)
    t = t0
    while t > t0 * 1e-3:
        for _ in range(mapping._ANNEAL_ITERS):
            trial = list(cur)
            if n_groups == n_stages or rng.random() < 0.5:
                i, j = rng.sample(range(n_stages), 2)
                trial[i], trial[j] = trial[j], trial[i]
            else:
                unused = [g for g in range(n_groups) if g not in trial]
                trial[rng.randrange(n_stages)] = unused[rng.randrange(len(unused))]
            trial_obj = objective(trial)
            delta = trial_obj - cur_obj
            if delta <= 0 or rng.random() < math.exp(-delta / t):
                cur, cur_obj = trial, trial_obj
                if cur_obj < best_obj:
                    best, best_obj = list(cur), cur_obj
        t *= mapping._ANNEAL_COOLING
    return mapping.StagePlacement(
        stage_groups=tuple(best),
        layer_bounds=tuple(bounds),
        objective=best_obj,
        greedy_objective=greedy_obj,
    )


# (role, tp, stages, act_bytes, seed) on the test system's 8-PE pools: 8, 4 and
# 2 groups. Annealing beats the greedy start in six of them, so accepted moves
# update the unused-group list; 2 groups or 4 of 4 leave it swaps only.
_SMALL_CASES = [
    (Role.PREFILL, 1, 2, 4096, 0), (Role.PREFILL, 1, 3, 1 << 20, 1),
    (Role.PREFILL, 1, 4, 64, 0), (Role.PREFILL, 1, 5, 64, 1),
    (Role.PREFILL, 2, 2, 1 << 20, 0), (Role.PREFILL, 2, 4, 4096, 1),
    (Role.PREFILL, 3, 2, 4096, 0), (Role.DECODE, 1, 3, 4096, 0),
    (Role.DECODE, 1, 5, 1 << 20, 1), (Role.DECODE, 2, 2, 4096, 1),
    (Role.DECODE, 2, 3, 64, 0), (Role.DECODE, 3, 2, 1 << 20, 1),
]


def test_place_stages_matches_rebuilding_oracle_on_small_pools():
    spec = make_system()
    improved = 0
    for role, tp, n_stages, act_bytes, seed in _SMALL_CASES:
        pool = pool_pe_coords(spec, role)
        grouping = cached_tp_group(pool, tp, spec)
        args = (grouping, pool, n_stages, 10, act_bytes, spec, seed)
        got = place_stages(*args)
        assert got == rebuilding_place_stages(*args), (role, tp, n_stages, act_bytes, seed)
        improved += got.objective < got.greedy_objective
    assert improved >= 3


@pytest.mark.parametrize("role,tp,pp,act_bytes,seed", [
    (Role.DECODE, 4, 8, 8192, 1),          # bench/plan.json's decode shape: 32 groups
    (Role.DECODE, 2, 2, 8192, 1),          # 64 groups
    (Role.PREFILL, 5, 4, 512 * 8192, 0),   # 16 groups; annealing beats greedy
])
def test_place_stages_matches_rebuilding_oracle_on_reference_pools(
        role, tp, pp, act_bytes, seed):
    """model_mid's handoffs (d_model 4096, 2-byte dtype; 512 prefill tokens)."""
    spec = load_system(str(Path(lamosim.__file__).parent / "configs" / "system_ref.json"))
    pool = pool_pe_coords(spec, role)
    args = (cached_tp_group(pool, tp, spec), pool, pp, 40, act_bytes, spec, seed)
    got = place_stages(*args)
    assert got == rebuilding_place_stages(*args)
    if role is Role.PREFILL:
        assert got.objective < got.greedy_objective


# --- plan assembly --------------------------------------------------------------


def test_estimate_layer_costs_positive(tiny_model, system):
    chiplet = system.chiplet_types["pc"]
    cost = estimate_layer_costs(tiny_model, chiplet, ops.Phase.PREFILL,
                                m_tokens=16, ctx_len=16, temp_c=65.0)
    assert cost > 0


def test_decode_layer_cost_scales_with_batch(tiny_model, system):
    chiplet = system.chiplet_types["dc"]
    one = estimate_layer_costs(tiny_model, chiplet, ops.Phase.DECODE, 1, 64, 65.0)
    four = estimate_layer_costs(tiny_model, chiplet, ops.Phase.DECODE, 4, 64, 65.0)
    assert four > one
    assert four < 4 * one  # projections batch, only attention replicates


def test_build_pd_plan_shape(tiny_model, system):
    plan = build_pd_plan(
        system, tiny_model,
        tp_prefill=2, pp_prefill=2, tp_decode=2, pp_decode=1,
        kv_budget_decode_bytes=1 << 20, ref_tokens=16)
    assert plan.prefill.layer_bounds == ((0, 1), (1, 2))
    assert plan.decode.layer_bounds == ((0, 2),)
    assert len(plan.prefill.stage_members) == 2
    assert all(len(s) == 2 for s in plan.prefill.stage_members)
    # Prefill PEs live on prefill chiplets, decode PEs on decode chiplets.
    pre_chips = {m.chip for s in plan.prefill.stage_members for m in s}
    dec_chips = {m.chip for s in plan.decode.stage_members for m in s}
    assert pre_chips <= set(system.coords_for_role(Role.PREFILL))
    assert dec_chips <= set(system.coords_for_role(Role.DECODE))


def kv_routes(plan):
    """(prefill stage, shard) -> [(layer, decode PE)] in the order kv_dest
    lists them, which is the order the engine sends them in."""
    return {(ps, i): [(lo + k, dst) for k, dst in enumerate(dests)]
            for ps, ((lo, _), shards) in enumerate(zip(plan.prefill.layer_bounds,
                                                        plan.kv_dest))
            for i, dests in enumerate(shards)}


def test_kv_peers_cover_all_prefill_shards(tiny_model, system):
    plan = build_pd_plan(
        system, tiny_model,
        tp_prefill=2, pp_prefill=2, tp_decode=2, pp_decode=1,
        kv_budget_decode_bytes=1 << 20, ref_tokens=16)
    # Each prefill stage holds one layer; every shard sends to its decode twin.
    routes = kv_routes(plan)
    assert len(routes) == 4
    for sends in routes.values():
        assert len(sends) == 1
        assert sends[0][1] in plan.decode.stage_members[0]
    # Shard i of prefill maps to shard i*tp_dec//tp_pre of decode.
    assert [dests[0] for dests in plan.kv_dest[0]] == list(plan.decode.stage_members[0][:2])


def test_kv_peers_tp_downscale(tiny_model, system):
    plan = build_pd_plan(
        system, tiny_model,
        tp_prefill=4, pp_prefill=1, tp_decode=2, pp_decode=1,
        kv_budget_decode_bytes=1 << 20, ref_tokens=16)
    shards = plan.kv_dest[0]
    assert len(shards) == 4
    dec = plan.decode.stage_members[0]
    assert [set(dests) for dests in shards] == [{dec[0]}, {dec[0]}, {dec[1]}, {dec[1]}]


def peer_loop_routes(plan, tp_prefill, tp_decode):
    """The KV routes as build_pd_plan listed them before the destination
    table: one peer record per (prefill stage, overlapping decode stage,
    prefill shard) with its layer range, which the engine looked the shard up
    for and expanded layer by layer."""
    prefill, decode = plan.prefill, plan.decode
    peers = []
    for ps, pre_members in enumerate(prefill.stage_members):
        plo, phi = prefill.layer_bounds[ps]
        for ds, dec_members in enumerate(decode.stage_members):
            dlo, dhi = decode.layer_bounds[ds]
            lo, hi = max(plo, dlo), min(phi, dhi)
            if lo >= hi:
                continue
            for i, pre_pe in enumerate(pre_members):
                j = i * tp_decode // tp_prefill
                peers.append((ps, pre_pe, ds, dec_members[j], lo, hi))
    routes = {}
    for ps, pre_coord, _, dec_coord, lo, hi in peers:
        i = prefill.stage_members[ps].index(pre_coord)
        routes.setdefault((ps, i), []).extend((layer, dec_coord) for layer in range(lo, hi))
    return routes


@pytest.mark.parametrize("n_layers, tp_pre, pp_pre, tp_dec, pp_dec", [
    (2, 2, 2, 2, 1), (2, 4, 1, 2, 1), (3, 4, 2, 2, 3), (3, 1, 1, 2, 3),
    (4, 1, 3, 2, 4), (4, 2, 4, 1, 3), (5, 2, 2, 1, 3), (5, 2, 2, 2, 3),
    (5, 1, 2, 2, 3), (5, 2, 2, 4, 2), (5, 4, 1, 1, 5), (7, 1, 3, 1, 4),
    (7, 2, 3, 4, 2),
])
def test_kv_dest_matches_peer_loop(system, n_layers, tp_pre, pp_pre, tp_dec, pp_dec):
    """Every prefill PE sends each layer's KV to the same decode PE, in the
    same order, as the per-peer records did, including stage boundaries that
    do not line up and prefill wider than, as wide as, and narrower than
    decode."""
    plan = build_pd_plan(system, make_model(n_layers=n_layers),
                         tp_prefill=tp_pre, pp_prefill=pp_pre, tp_decode=tp_dec,
                         pp_decode=pp_dec, kv_budget_decode_bytes=1 << 20, ref_tokens=8)
    routes = kv_routes(plan)
    assert routes == peer_loop_routes(plan, tp_pre, tp_dec)
    assert len(routes) == tp_pre * pp_pre
    assert sorted(layer for sends in routes.values() for layer, _ in sends) == \
        sorted(list(range(n_layers)) * tp_pre)


def test_capacity_exceeded(tiny_model, system):
    huge = 10 * system.chiplet_types["dc"].dram.capacity_bytes
    with pytest.raises(CapacityExceeded):
        build_pd_plan(
            system, tiny_model,
            tp_prefill=2, pp_prefill=1, tp_decode=2, pp_decode=1,
            kv_budget_decode_bytes=huge, ref_tokens=16)


@pytest.mark.parametrize("n_layers, pp", [(2, 2), (5, 3), (7, 3)])
def test_build_pd_plan_admits_kv_headroom(system, n_layers, pp):
    """build_pd_plan admits kv_headroom's budget. It floors each stage's
    layer share of the budget, so it also admits a few larger budgets, each
    fewer than N/L + 1 bytes above the headroom (N the model's layers, L the
    fewest any stage holds)."""
    model = make_model(n_layers=n_layers)

    def build(kv_budget):
        return build_pd_plan(system, model, tp_prefill=1, pp_prefill=1, tp_decode=1,
                             pp_decode=pp, kv_budget_decode_bytes=kv_budget, ref_tokens=8)

    plan = build(0)
    headroom = kv_headroom(plan.decode, system, model)
    assert build(headroom) == plan
    fewest = min(hi - lo for lo, hi in plan.decode.layer_bounds)
    for above in range(1, n_layers + 2):
        try:
            build(headroom + above)
        except CapacityExceeded:
            break
    else:
        pytest.fail("no budget rejected within N + 1 bytes of the headroom")
    assert above - 1 < n_layers / fewest + 1


def test_big_model_weights_trigger_capacity(system):
    fat = make_model(d_model=4096, d_ffn=16384, n_heads=32, n_kv_heads=32,
                     d_head=128, n_layers=80)
    with pytest.raises(CapacityExceeded):
        build_pd_plan(
            system, fat,
            tp_prefill=2, pp_prefill=1, tp_decode=2, pp_decode=1,
            kv_budget_decode_bytes=0, ref_tokens=16)


def test_plan_deterministic(tiny_model, system):
    kw = dict(tp_prefill=2, pp_prefill=2, tp_decode=2, pp_decode=2,
              kv_budget_decode_bytes=1 << 20, ref_tokens=16, seed=3)
    a = build_pd_plan(system, tiny_model, **kw)
    b = build_pd_plan(system, tiny_model, **kw)
    assert a == b
