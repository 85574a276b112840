"""Design-space search against brute-force oracles on small spaces."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from multiprocessing.pool import ThreadPool
from pathlib import Path

import pytest

from conftest import make_chiplet, make_dram, make_model, make_pe, make_system
import lamosim
from lamosim import dse, mapping, ops
from lamosim.comm import allreduce_cost, link_delay, manhattan
from lamosim.hwspec import (ConfigError, ModelSpec, PowerConsts, Role, SystemSpec,
                            derive_chiplet_metrics, load_model, load_system)
from lamosim.mapping import (CapacityExceeded, cached_tp_group, estimate_layer_costs,
                             group_center_coord, pool_chiplet, pool_pe_coords,
                             stage_bytes)
from lamosim.serving import SimConfig, synth_trace

CONFIGS = Path(lamosim.__file__).parent / "configs"


# --- Pareto utilities ---------------------------------------------------------


def brute_front(points):
    """O(n^2) reference: keep p unless some q is >= everywhere and > somewhere."""
    out = []
    for p in points:
        dominated = any(
            all(qi >= pi for qi, pi in zip(q, p))
            and any(qi > pi for qi, pi in zip(q, p))
            for q in points)
        if not dominated:
            out.append(p)
    return out


def test_pareto_front_matches_brute_force():
    rng = random.Random(5)
    pts = [tuple(rng.randint(1, 9) for _ in range(3)) for _ in range(60)]
    got = dse.epsilon_retained(pts, key=lambda p: p, eps=0.0)
    assert sorted(got) == sorted(brute_front(pts))


def test_epsilon_retained_superset_of_front():
    rng = random.Random(6)
    pts = [tuple(rng.uniform(1.0, 9.0) for _ in range(3)) for _ in range(40)]
    front = dse.epsilon_retained(pts, key=lambda p: p, eps=0.0)
    near = dse.epsilon_retained(pts, key=lambda p: p, eps=0.05)
    assert set(front) <= set(near)


def test_epsilon_margin_by_hand():
    a, b = (10.0, 10.0, 1.0), (9.0, 9.0, 0.9)
    # a exceeds b by >5% in every dimension, so b falls out at eps=0.05
    assert dse.epsilon_retained([a, b], key=lambda p: p, eps=0.05) == [a]
    # at eps=0.2 the required margin (10.8, ...) is not met and b survives
    assert dse.epsilon_retained([a, b], key=lambda p: p, eps=0.2) == [a, b]
    with pytest.raises(ValueError):
        dse.epsilon_retained([a], key=lambda p: p, eps=-0.1)


def test_ties_never_eliminate_each_other():
    pts = [(1.0, 1.0), (1.0, 1.0)]
    assert dse.epsilon_retained(pts, key=lambda p: p, eps=0.05) == pts
    assert dse.epsilon_retained(pts, key=lambda p: p, eps=0.0) == pts


# --- sampling -----------------------------------------------------------------


def test_stratified_samples_cover_every_axis_evenly():
    domain = {"a": (1, 2, 3), "b": (10, 20)}
    n = 12
    samples = dse.stratified_samples(domain, n, seed=1)
    assert len(samples) == n
    for key, vals in domain.items():
        counts = {v: sum(1 for s in samples if s[key] == v) for v in vals}
        assert all(c == n // len(vals) for c in counts.values())


def test_stratified_samples_deterministic():
    domain = {"a": (1, 2, 3), "b": (10, 20)}
    assert dse.stratified_samples(domain, 7, seed=9) == \
        dse.stratified_samples(domain, 7, seed=9)


@pytest.mark.parametrize("n,dims", [(4, (2, 2)), (6, (2, 3)), (9, (3, 3)),
                                    (10, (2, 5)), (18, (3, 6)), (25, (5, 5))])
def test_grid_dims(n, dims):
    assert dse._grid_dims(n) == dims


# --- chiplet sweep ------------------------------------------------------------


def _sample(**over):
    base = dict(n_io_bits=64, capacity_gb=1, n_layer=2, n_bank=8, n_core=2,
                n_pe=4, sram_kb=256, sa_rows=32, sa_cols=32, base_sa_rows=8,
                vector_regs=32)
    base.update(over)
    return base


def test_chiplet_from_sample_maps_fields():
    base = make_chiplet()
    c = dse.chiplet_from_sample(base, _sample())
    assert (c.pe_rows, c.pe_cols) == (2, 2)
    assert c.dram.capacity_bytes == 1 << 30
    assert c.pe.sram_capacity_bytes == 256 * 1024
    # 2 layers x 8 banks = 16 channels over 4 PEs
    assert c.pe.n_mc == 4
    # untouched constants come from the base spec
    assert c.clock_hz == base.clock_hz
    assert c.dram.t_rfc_ns == base.dram.t_rfc_ns


def test_chiplet_from_sample_rejects_inconsistent_combos():
    base = make_chiplet()
    with pytest.raises(ValueError):
        # 1 layer x 8 banks = 8 channels cannot feed 25 PEs
        dse.chiplet_from_sample(base, _sample(n_layer=1, n_pe=25))
    with pytest.raises(ConfigError):
        # 1 GiB does not split over 3 x 8 banks
        dse.chiplet_from_sample(base, _sample(n_layer=3))


def test_chiplet_dse_front_matches_brute_force():
    res = dse.chiplet_dse(make_chiplet(), n_samples=120, seed=3)
    assert res.valid, "sweep produced no valid candidates"
    by_cap = {}
    for c in res.valid:
        by_cap.setdefault(c.dram.capacity_bytes, []).append(c)
    want = set()
    for group in by_cap.values():
        objs = {c: (derive_chiplet_metrics(c).peak_flops,
                    derive_chiplet_metrics(c).peak_bw_bytes,
                    1.0 / derive_chiplet_metrics(c).peak_power_w)
                for c in group}
        for c in group:
            dominated = any(
                all(q >= p for q, p in zip(objs[d], objs[c]))
                and any(q > p for q, p in zip(objs[d], objs[c]))
                for d in group if d is not c)
            if not dominated:
                want.add(c)
    assert set(res.front) == want
    assert set(res.front) <= set(res.retained)
    assert len(res.valid) + sum(res.rejects.values()) <= res.sampled


def test_chiplet_dse_deterministic():
    a = dse.chiplet_dse(make_chiplet(), n_samples=50, seed=7)
    b = dse.chiplet_dse(make_chiplet(), n_samples=50, seed=7)
    assert a == b


def test_chiplet_dse_counts_only_validation_errors_as_rejects(monkeypatch):
    """A ValueError from a sample is a reject; any other error is a fault in
    the program and propagates instead of being counted."""
    def broken(base, sample):
        raise TypeError("not a validation error")

    monkeypatch.setattr(dse, "chiplet_from_sample", broken)
    with pytest.raises(TypeError, match="not a validation error"):
        dse.chiplet_dse(make_chiplet(), n_samples=4, seed=0)


def test_chiplet_dse_domain_axes_exact():
    full = dict(dse.DEFAULT_CHIPLET_DOMAIN)
    with pytest.raises(ValueError, match="unknown \\['nop_channels'\\]"):
        dse.chiplet_dse(make_chiplet(), 4, 0, domain={**full, "nop_channels": (2,)})
    del full["n_core"]
    with pytest.raises(ValueError, match="missing \\['n_core'\\]"):
        dse.chiplet_dse(make_chiplet(), 4, 0, domain=full)


# --- plan selection -----------------------------------------------------------


# The per-shape enumeration and scorer that `mapping._phase_ranking` replaced,
# kept as its oracle, with the candidate lists it was written on.


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


def _flat_phase_shapes(pool_n, n_layers):
    """Every candidate (tp, pp) shape, one entry each."""
    tps = set(_pow2_upto(pool_n))
    for pp in _divisors(n_layers):
        if pp <= pool_n:
            tps.add(pool_n // pp)
    pps = set(_pow2_upto(n_layers)) | set(_divisors(n_layers))
    out = []
    for tp in sorted(tps):
        for pp in sorted(p for p in pps if p <= min(pool_n // tp, n_layers)):
            out.append((tp, pp))
    return out


def _phase_score(spec: SystemSpec, model: ModelSpec, role: Role,
                 phase: ops.Phase, tp: int, pp: int, m_tokens: int,
                 ctx: int, temp_c: float, kv_budget_bytes: int = 0) -> float | None:
    """Ranking score for one (tp, pp) shape; None when it cannot fit: too few
    groups, or its deepest stage overflows the group slice by
    `mapping.stage_bytes`, the rule build_pd_plan checks.

    Prefill: one request's traversal = all layers in sequence plus a handoff
    per stage boundary. Decode: beat period of the deepest stage; transfers
    overlap the next beat so they do not enter the period.
    """
    pool = pool_pe_coords(spec, role)
    chiplet = pool_chiplet(spec, role)
    k = len(pool) // tp
    if k < pp or tp > len(pool):
        return None
    worst_layers = math.ceil(model.n_layers / pp)
    slice_b = chiplet.dram.capacity_bytes // chiplet.n_pe
    if stage_bytes(model, worst_layers, kv_budget_bytes) > tp * slice_b:
        return None
    layer_s = estimate_layer_costs(model, chiplet, phase, m_tokens, ctx, temp_c, tp)
    ar_s = 0.0
    handoff = 0.0
    msg = m_tokens * model.d_model * model.dtype_bytes
    if tp > 1 or pp > 1:
        groups = cached_tp_group(pool, tp, spec).groups
        first = [pool[i] for i in groups[0]]
        c0 = group_center_coord(first, spec)
        if tp > 1:
            ar_s = allreduce_cost(first, c0, msg, spec).latency_s
        if pp > 1:
            c1 = group_center_coord([pool[i] for i in groups[1]], spec)
            handoff = link_delay(msg, *manhattan(c0, c1, spec), spec)
    if phase is ops.Phase.PREFILL:
        return model.n_layers * (layer_s + 2.0 * ar_s) + (pp - 1) * handoff
    return worst_layers * (layer_s + 2.0 * ar_s)


def _oracle_ranking(spec, model, role, phase, m_tokens, ctx, kv=0):
    """The per-shape ranking: one `_phase_score` call per shape."""
    out = []
    for tp, pp in _flat_phase_shapes(len(pool_pe_coords(spec, role)), model.n_layers):
        s = _phase_score(spec, model, role, phase, tp, pp, m_tokens, ctx, 65.0, kv)
        if s is not None:
            out.append((s, pp, -tp))
    return sorted(out)


def _table(spec, model, role, phase, m_tokens, ctx, kv=0):
    return mapping._phase_ranking(spec, model, role, m_tokens, ctx, 65.0, kv)


def test_phase_shapes_group_the_flat_shape_list_by_width():
    for pool_n in (1, 2, 3, 8, 12, 64, 96):
        for n_layers in (1, 2, 6, 7, 40, 80):
            flat = [(tp, pp) for tp, pps in mapping._phase_shapes(pool_n, n_layers)
                    for pp in pps]
            assert flat == _flat_phase_shapes(pool_n, n_layers)


def test_phase_ranking_matches_per_shape_oracle(system, tiny_model):
    free = _table(system, tiny_model, Role.DECODE, ops.Phase.DECODE, 4, 8)
    kv = 1 << 28  # drops tp=1 entirely and pp=1 at tp=2, keeps wider shapes
    held = _table(system, tiny_model, Role.DECODE, ops.Phase.DECODE, 4, 8, kv)
    assert 0 < len(held) < len(free)
    assert held == _oracle_ranking(system, tiny_model, Role.DECODE,
                                   ops.Phase.DECODE, 4, 8, kv)
    assert free == _oracle_ranking(system, tiny_model, Role.DECODE,
                                   ops.Phase.DECODE, 4, 8)
    assert _table(system, tiny_model, Role.PREFILL, ops.Phase.PREFILL, 8, 8) == \
        _oracle_ranking(system, tiny_model, Role.PREFILL, ops.Phase.PREFILL, 8, 8)


@pytest.mark.parametrize("model_name", ["model_tiny.json", "model_mid.json"])
def test_phase_ranking_matches_oracle_on_reference_system(model_name):
    spec = load_system(str(CONFIGS / "system_ref.json"))
    model = load_model(str(CONFIGS / model_name))
    for role, phase, m_tokens, ctx in ((Role.PREFILL, ops.Phase.PREFILL, 512, 512),
                                       (Role.DECODE, ops.Phase.DECODE, 16, 2048)):
        assert _table(spec, model, role, phase, m_tokens, ctx) == \
            _oracle_ranking(spec, model, role, phase, m_tokens, ctx)


def test_phase_ranking_prefers_deep_pipeline_for_decode_only(system, tiny_model):
    # same shard cost per layer; prefill pays a handoff for pp=2 while decode
    # halves its beat period
    pre = {(-mtp, pp): s for s, pp, mtp in
           _table(system, tiny_model, Role.PREFILL, ops.Phase.PREFILL, 8, 8)}
    dec = {(-mtp, pp): s for s, pp, mtp in
           _table(system, tiny_model, Role.DECODE, ops.Phase.DECODE, 4, 8)}
    pre1, pre2 = pre[1, 1], pre[1, 2]
    dec1, dec2 = dec[1, 1], dec[1, 2]
    assert pre2 > pre1
    assert dec2 < dec1
    assert dec2 == pytest.approx(dec1 / 2)


def test_phase_ranking_raises_when_no_shape_fits(system):
    fat = make_model(n_layers=80, n_heads=32, n_kv_heads=32, d_head=128,
                     d_model=4096, d_ffn=16384)
    with pytest.raises(CapacityExceeded, match="no \\(tp, pp\\) shape fits prefill"):
        _table(system, fat, Role.PREFILL, ops.Phase.PREFILL, 8, 8)


def test_phase_ranking_costs_each_width_once(monkeypatch):
    spec = load_system(str(CONFIGS / "system_ref.json"))
    model = load_model(str(CONFIGS / "model_mid.json"))
    widths = []
    fresh = mapping.estimate_layer_costs

    def counted(model, chiplet, phase, m_tokens, ctx, temp_c, tp):
        widths.append((phase, tp))
        return fresh(model, chiplet, phase, m_tokens, ctx, temp_c, tp)

    monkeypatch.setattr(mapping, "estimate_layer_costs", counted)
    dse.search_plan(spec, model)
    assert len(widths) == len(set(widths)) == 23


def test_search_plan_builds_the_ranked_winner(system, tiny_model):
    choice = dse.search_plan(system, tiny_model, ref_prefill_tokens=8,
                             ref_decode_ctx=8, ref_decode_batch=4)
    assert choice.plan.prefill.tp == choice.prefill_tp
    assert choice.plan.prefill.pp == choice.prefill_pp
    assert choice.plan.decode.tp == choice.decode_tp
    assert choice.plan.decode.pp == choice.decode_pp
    assert choice.prefill_score_s > 0 and choice.decode_score_s > 0


def test_search_plan_kv_headroom_recomputed_by_hand(system, tiny_model):
    choice = dse.search_plan(system, tiny_model, ref_prefill_tokens=8,
                             ref_decode_ctx=8, ref_decode_batch=4)
    per_layer_w = tiny_model.weights_per_layer() * tiny_model.dtype_bytes
    want = None
    dec = choice.plan.decode
    for (lo, hi), members in zip(dec.layer_bounds, dec.stage_members):
        cap = sum(system.chiplet_at(m.chip).dram.capacity_bytes
                  // system.chiplet_at(m.chip).n_pe for m in members)
        b = (cap - (hi - lo) * per_layer_w) * tiny_model.n_layers // (hi - lo)
        want = b if want is None else min(want, b)
    assert choice.kv_budget_bytes == want


def test_search_plan_explicit_budget_is_passed_through(system, tiny_model):
    choice = dse.search_plan(system, tiny_model, kv_budget_decode_bytes=1 << 20,
                             ref_prefill_tokens=8, ref_decode_ctx=8,
                             ref_decode_batch=4)
    assert choice.kv_budget_bytes == 1 << 20


def test_search_plan_ranks_only_decode_shapes_holding_the_budget(system, tiny_model):
    """A budget the unconstrained winner cannot hold, but some shape can, picks
    the best-scored decode shape whose built plan holds it."""
    kw = dict(ref_prefill_tokens=8, ref_decode_ctx=8, ref_decode_batch=4)
    free = dse.search_plan(system, tiny_model, **kw)
    shapes = mapping._phase_shapes(len(mapping.pool_pe_coords(system, Role.DECODE)),
                                   tiny_model.n_layers)
    headroom = {}
    for tp, pp in ((tp, pp) for tp, pps in shapes for pp in pps):
        plan = mapping.build_pd_plan(system, tiny_model, tp_prefill=1, pp_prefill=1,
                                     tp_decode=tp, pp_decode=pp, kv_budget_decode_bytes=0)
        headroom[tp, pp] = mapping.kv_headroom(plan.decode, system, tiny_model)
    assert free.kv_budget_bytes < max(headroom.values())
    budget = (free.kv_budget_bytes + max(headroom.values())) // 2
    choice = dse.search_plan(system, tiny_model, kv_budget_decode_bytes=budget, **kw)
    scores = {(-mtp, pp): sc for sc, pp, mtp in _table(
        system, tiny_model, Role.DECODE, ops.Phase.DECODE, 4, 8)}
    want = min((scores[tp, pp], pp, -tp)
               for (tp, pp), h in headroom.items() if h >= budget)
    assert (choice.decode_pp, -choice.decode_tp) == want[1:]
    assert choice.kv_budget_bytes == budget
    assert mapping.kv_headroom(choice.plan.decode, system, tiny_model) >= budget


def test_search_plan_raises_when_nothing_fits(system):
    fat = make_model(n_layers=80, n_heads=32, n_kv_heads=32, d_head=128,
                     d_model=4096, d_ffn=16384)
    with pytest.raises(CapacityExceeded):
        dse.search_plan(system, fat)


def test_search_plan_groups_each_pool_and_width_once(system, tiny_model, monkeypatch):
    """Ranking and plan building share one memoized grouping per (pool, tp):
    every tp_group call is a distinct (pool, tp), and a repeated search makes
    none."""
    monkeypatch.setattr(mapping, "_groupings", {})
    calls = []
    fresh = mapping.tp_group

    def counted(coords, tp, *args, **kwargs):
        calls.append((tuple(coords), tp))
        return fresh(coords, tp, *args, **kwargs)

    monkeypatch.setattr(mapping, "tp_group", counted)
    kw = dict(ref_prefill_tokens=8, ref_decode_ctx=8, ref_decode_batch=4)
    first = dse.search_plan(system, tiny_model, **kw)
    assert calls
    assert len(calls) == len(set(calls))
    n = len(calls)
    assert dse.search_plan(system, tiny_model, **kw) == first
    assert len(calls) == n


def test_search_plan_deterministic(system, tiny_model):
    a = dse.search_plan(system, tiny_model, ref_prefill_tokens=8,
                        ref_decode_ctx=8, ref_decode_batch=4)
    b = dse.search_plan(system, tiny_model, ref_prefill_tokens=8,
                        ref_decode_ctx=8, ref_decode_batch=4)
    assert a == b


# --- system search ------------------------------------------------------------


def _trace():
    return synth_trace("custom", 6, 50.0, 11, mean_input=6, mean_output=4)


def _candidates():
    pc_fast = make_chiplet(Role.PREFILL)
    pc_slow = make_chiplet(Role.PREFILL, clock_hz=0.5e9)
    dc_dram = make_dram(n_layer=4, capacity_bytes=4 * 8 * (16 << 20))
    dc_fast = make_chiplet(Role.DECODE, dram=dc_dram)
    dc_slow = make_chiplet(Role.DECODE, dram=dc_dram, clock_hz=0.5e9)
    return [pc_fast, pc_slow], [dc_fast, dc_slow]


def test_build_system_layout():
    pcs, dcs = _candidates()
    spec = dse.build_system(make_system(), pcs[0], dcs[0], 2, 2)
    assert spec.placement == {(0, 0): "pc", (1, 0): "pc",
                              (0, 1): "dc", (1, 1): "dc"}
    assert spec.chiplet_types["pc"].role is Role.PREFILL
    assert spec.chiplet_types["dc"].role is Role.DECODE
    # interconnect and rack limits inherited from the template
    assert spec.rack_power_limit_w == make_system().rack_power_limit_w


def test_evaluate_design_feasible_run():
    pcs, dcs = _candidates()
    ev = dse.evaluate_design(
        dse.DesignPoint(pc=0, dc=0, n_pc=2, n_dc=2),
        pc_candidates=pcs, dc_candidates=dcs, template=make_system(),
        model=make_model(), trace=_trace(), slo=dse.Slo())
    assert ev.feasible and not ev.violations and ev.simulated
    assert ev.tokens_per_joule > 0
    assert ev.t_max_c > 45.0
    assert math.isfinite(ev.peak_power_w)


def test_evaluate_design_slo_violation():
    pcs, dcs = _candidates()
    ev = dse.evaluate_design(
        dse.DesignPoint(pc=0, dc=0, n_pc=2, n_dc=2),
        pc_candidates=pcs, dc_candidates=dcs, template=make_system(),
        model=make_model(), trace=_trace(), slo=dse.Slo(ttft_p95_s=1e-15))
    assert not ev.feasible and "TtftSlo" in ev.violations and ev.simulated


def test_evaluate_design_kv_budget_beyond_slice_is_capacity_rejection():
    pcs, dcs = _candidates()
    ev = dse.evaluate_design(
        dse.DesignPoint(pc=0, dc=0, n_pc=2, n_dc=2),
        pc_candidates=pcs, dc_candidates=dcs, template=make_system(),
        model=make_model(), trace=_trace(), slo=dse.Slo(),
        cfg=SimConfig(kv_budget_bytes=1 << 50))
    assert not ev.feasible and ev.violations == ("CapacityExceeded",)
    assert not ev.simulated


def test_evaluate_design_static_rejection_is_free():
    pcs, dcs = _candidates()
    pcs = [make_chiplet(Role.PREFILL, tdp_w=1.0)]
    ev = dse.evaluate_design(
        dse.DesignPoint(pc=0, dc=0, n_pc=2, n_dc=2),
        pc_candidates=pcs, dc_candidates=dcs, template=make_system(),
        model=make_model(), trace=_trace(), slo=dse.Slo())
    assert not ev.feasible and "PowerExceeded" in ev.violations
    assert not ev.simulated


# Decode chiplets that pass static validation but admit no run: an SRAM that
# fits no tile fails the plan search; leakage that heats the DRAM past
# refresh fails once the first coupling round has set the temperatures; more
# leakage still runs away, so the thermal fixed point does not converge.
INFEASIBLE_DECODE = {
    "sram_fits_no_tile": (dict(pe=make_pe(sram_capacity_bytes=1)), "NoFeasibleMapping", False),
    "refresh_stall_after_round_1": (dict(tdp_w=5000.0, power=PowerConsts(
        leak_base_w_per_pe=300.0, dram_static_w_per_layer=1.0, refresh_w_per_layer=0.25)),
        "RefreshStall", True),
    "thermal_runaway": (dict(tdp_w=5000.0, power=PowerConsts(
        leak_base_w_per_pe=400.0, dram_static_w_per_layer=1.0, refresh_w_per_layer=0.25)),
        "NonConvergence", True),
}


@pytest.mark.parametrize("over,name,simulated", INFEASIBLE_DECODE.values(),
                         ids=INFEASIBLE_DECODE.keys())
def test_evaluate_design_rejects_an_infeasible_run_under_its_type(over, name, simulated):
    pcs, dcs = _candidates()
    ev = dse.evaluate_design(
        dse.DesignPoint(pc=0, dc=0, n_pc=2, n_dc=2),
        pc_candidates=pcs, dc_candidates=[replace(dcs[0], **over)],
        template=make_system(rack_power_limit_w=1e6), model=make_model(),
        trace=_trace(), slo=dse.Slo())
    assert not ev.feasible and ev.violations == (name,)
    assert ev.simulated is simulated


@pytest.mark.parametrize("over,name,simulated", INFEASIBLE_DECODE.values(),
                         ids=INFEASIBLE_DECODE.keys())
def test_system_dse_ranks_past_an_infeasible_design(over, name, simulated):
    pcs, dcs = _candidates()
    res = dse.system_dse(make_system(rack_power_limit_w=1e6), make_model(), _trace(),
                         pcs[:1], [dcs[0], replace(dcs[0], **over)], [(2, 2)], dse.Slo(),
                         budget=4, seed=0)
    assert res.exhaustive and res.recheck_ok
    assert res.best.feasible and res.best.point.dc == 0
    assert [ev.violations for ev in res.evaluated] == [(), (name,)]
    assert res.sim_count == 2 + simulated  # the good design, its re-check, the reject


def test_system_dse_exhaustive_matches_brute_force():
    pcs, dcs = _candidates()
    counts = [(2, 2), (1, 3)]
    res = dse.system_dse(make_system(), make_model(), _trace(), pcs, dcs,
                         counts, dse.Slo(), budget=16, seed=0)
    assert res.exhaustive and res.recheck_ok
    assert len(res.evaluated) == len(pcs) * len(dcs) * len(counts)
    # brute force over the same space with the same evaluator
    best = None
    for i in range(len(pcs)):
        for j in range(len(dcs)):
            for n_pc, n_dc in counts:
                ev = dse.evaluate_design(
                    dse.DesignPoint(pc=i, dc=j, n_pc=n_pc, n_dc=n_dc),
                    pc_candidates=pcs, dc_candidates=dcs,
                    template=make_system(), model=make_model(),
                    trace=_trace(), slo=dse.Slo())
                key = (ev.feasible, ev.tokens_per_joule)
                if best is None or key > best[0]:
                    best = (key, ev)
    assert res.best.point == best[1].point
    assert res.best.tokens_per_joule == best[1].tokens_per_joule


def test_system_dse_threaded_map_matches_serial():
    pcs, dcs = _candidates()
    counts = [(2, 2), (1, 3)]
    serial = dse.system_dse(make_system(), make_model(), _trace(), pcs, dcs,
                            counts, dse.Slo(), budget=16, seed=0)
    with ThreadPool(3) as pool:
        threaded = dse.system_dse(make_system(), make_model(), _trace(), pcs,
                                  dcs, counts, dse.Slo(), budget=16, seed=0,
                                  map_fn=pool.map)
    assert serial == threaded


def test_system_dse_budgeted_path():
    pcs, dcs = _candidates()
    counts = [(2, 2), (1, 3)]
    res = dse.system_dse(make_system(), make_model(), _trace(), pcs, dcs,
                         counts, dse.Slo(), budget=6, seed=0)
    assert not res.exhaustive
    assert res.sim_count <= 6
    assert res.best.feasible
    again = dse.system_dse(make_system(), make_model(), _trace(), pcs, dcs,
                           counts, dse.Slo(), budget=6, seed=0)
    assert res == again


@pytest.mark.parametrize("counts,budget", [
    ([(2, 2), (1, 3)], 7),          # 8 designs, room for 6 beside the re-check
    ([(2, 2), (1, 3), (3, 1)], 4),  # a 3-design seed wave fills the room beside it
], ids=["repeated_seeds", "seeds_beyond_budget"])
def test_system_dse_seed_wave_stays_in_budget(counts, budget):
    pcs, dcs = _candidates()
    res = dse.system_dse(make_system(), make_model(), _trace(), pcs, dcs,
                         counts, dse.Slo(), budget=budget, seed=0)
    assert not res.exhaustive
    assert res.sim_count <= budget


def test_system_dse_last_wave_spends_the_budget_left():
    """After the 2-design seed wave, neighbour waves run until the 6
    simulations beside the re-check are spent, the last one cut to fit."""
    pcs, dcs = _candidates()
    res = dse.system_dse(make_system(), make_model(), _trace(), pcs, dcs,
                         [(2, 2), (1, 3)], dse.Slo(), budget=7, seed=0)
    assert not res.exhaustive
    assert len(res.evaluated) == 6
    assert res.sim_count == 7


# A synthetic landscape: evaluate_design is replaced, so no design is simulated.
_AXES = (4, 3, 5)
_COUNTS = [(1, n) for n in range(1, _AXES[2] + 1)]
_GRID = list(itertools.product(*map(range, _AXES)))


def _landscape_search(monkeypatch, tpj, budget, seed=0, rejected=lambda t: False):
    """system_dse over a 4 x 3 x 5 grid of designs t = (pc, dc, counts index)
    scoring tpj(t) tokens per joule, where rejected(t) marks a static reject.
    Returns the result and each wave dispatched, as lists of t."""
    def fake_eval(point, **_):
        t = (point.pc, point.dc, _COUNTS.index((point.n_pc, point.n_dc)))
        if rejected(t):
            return dse.DesignEval(point, False, ("PowerExceeded",), 0.0, 0.0,
                                  math.inf, math.inf, math.inf, math.inf, False)
        return dse.DesignEval(point, True, (), tpj(t), 0.0, 0.0, 0.0, 0.0, 0.0, True)

    waves = []

    def recording_map(fn, points):
        points = list(points)
        waves.append([(p.pc, p.dc, _COUNTS.index((p.n_pc, p.n_dc))) for p in points])
        return map(fn, points)

    monkeypatch.setattr(dse, "evaluate_design", fake_eval)
    res = dse.system_dse(make_system(), make_model(), None,
                         [make_chiplet(Role.PREFILL)] * _AXES[0],
                         [make_chiplet(Role.DECODE)] * _AXES[1], _COUNTS, dse.Slo(),
                         budget=budget, seed=seed, map_fn=recording_map)
    return res, waves


@pytest.mark.parametrize("seed", range(5))
def test_system_dse_waves_are_neighbourhoods_of_the_best_design(monkeypatch, seed):
    rng = random.Random(seed)
    tpj = {t: rng.random() for t in _GRID}
    budget = 30
    res, waves = _landscape_search(monkeypatch, tpj.__getitem__, budget, seed)
    seen = set(waves[0])
    assert len(waves[0]) == max(_AXES)  # every value of every axis once

    def open_neighbours(t):
        return {u for u in _GRID
                if u not in seen and sum(abs(a - b) for a, b in zip(t, u)) == 1}

    for wave in waves[1:]:
        best = max((t for t in seen if open_neighbours(t)), key=tpj.__getitem__)
        neighbours = open_neighbours(best)
        assert set(wave) <= neighbours
        assert len(wave) == len(set(wave)) == min(len(neighbours), budget - 1 - len(seen))
        seen.update(wave)
    assert len(seen) == budget - 1 and res.sim_count == budget
    assert res.best.tokens_per_joule == max(tpj[t] for t in seen)


@pytest.mark.parametrize("seed", range(10))
def test_system_dse_climbs_a_monotone_landscape_to_its_maximum(monkeypatch, seed):
    budget = 24  # of 60 designs
    res, _ = _landscape_search(monkeypatch, sum, budget, seed)
    assert not res.exhaustive and len(res.evaluated) == budget - 1
    assert (res.best.point.pc, res.best.point.dc) == (_AXES[0] - 1, _AXES[1] - 1)
    assert (res.best.point.n_pc, res.best.point.n_dc) == _COUNTS[-1]


def test_system_dse_static_rejects_leave_the_budget_alone(monkeypatch):
    budget = 20
    res, _ = _landscape_search(monkeypatch, sum, budget, rejected=lambda t: t[0] == 0)
    n_rejected = sum(not ev.simulated for ev in res.evaluated)
    assert n_rejected > 0
    assert sum(ev.simulated for ev in res.evaluated) == budget - 1
    assert res.sim_count == budget
    assert len(res.evaluated) == budget - 1 + n_rejected


def test_system_dse_no_feasible_design_histogram():
    pcs, dcs = _candidates()
    with pytest.raises(dse.NoFeasibleDesign) as exc:
        dse.system_dse(make_system(), make_model(), _trace(), pcs, dcs,
                       [(2, 2)], dse.Slo(ttft_p95_s=1e-15), budget=8, seed=0)
    assert exc.value.histogram.get("TtftSlo", 0) >= 1


def test_system_dse_budget_guard():
    pcs, dcs = _candidates()
    with pytest.raises(ValueError):
        dse.system_dse(make_system(), make_model(), _trace(), pcs, dcs,
                       [(2, 2)], dse.Slo(), budget=1, seed=0)
