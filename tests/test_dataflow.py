"""Dataflow search vs. an independent brute-force enumerator.

The oracle re-implements candidate enumeration and min-selection from scratch
(including tie-breaks) and shares only the scalar per-candidate cost evaluator,
so it checks both the search machinery and the grid's numpy arithmetic against
the scalar cost models (which have their own oracles in test_compute/test_dram).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dram, make_pe
from lamosim import dataflow, ops, serving
from lamosim.compute import CostLut, GemmShape, TileMapping
from lamosim.dataflow import (
    NoFeasibleMapping,
    ReusePolicy,
    enumerate_tilings,
    evaluate_mapping,
    search,
    staged_tile_bytes,
)
from lamosim.dram import refresh_derate
from lamosim.mapping import build_pd_plan, estimate_layer_costs

CLOCK = 1.0e9


def brute_force(shape, pe, dram, temp, dtype_bytes=2, policies=tuple(ReusePolicy)):
    """Naive exhaustive minimum with explicit tie-break ordering."""
    def p2(dim):
        vals = []
        v = 1
        while v <= dim:
            vals.append(v)
            v *= 2
        if vals[-1] != dim:
            vals.append(dim)
        return vals

    policy_rank = {p: i for i, p in enumerate(ReusePolicy)}
    best_key = None
    best = None
    n_evaluated = 0
    for tm in p2(shape.m):
        for tn in p2(shape.n):
            for tk in p2(shape.k):
                t = TileMapping(tm, tn, tk)
                for p in policies:
                    if staged_tile_bytes(p, t, dtype_bytes) > pe.sram_capacity_bytes:
                        continue
                    c = evaluate_mapping(shape, p, t, pe, dram, temp,
                                         clock_hz=CLOCK, dtype_bytes=dtype_bytes)
                    n_evaluated += 1
                    key = (c.latency_s, c.energy_j, (tm, tn, tk), policy_rank[p])
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (p, t, c)
    return best, n_evaluated


def test_enumerate_tilings_small():
    tilings = enumerate_tilings(GemmShape(4, 2, 1), make_pe())
    assert len(tilings) == 6
    assert tilings[0] == TileMapping(1, 1, 1)
    assert tilings == sorted(tilings, key=lambda t: (t.t_m, t.t_n, t.t_k))


def test_enumerate_tilings_4096_cubed():
    tilings = enumerate_tilings(GemmShape(4096, 4096, 4096), make_pe())
    assert len(tilings) == 13 ** 3


def test_enumerate_includes_non_pow2_dim():
    tilings = enumerate_tilings(GemmShape(6, 1, 1), make_pe())
    assert {t.t_m for t in tilings} == {1, 2, 4, 6}


def test_feasible_policies_boundary():
    # 4x4 tiles, 2-byte dtype, 32 B SRAM: each single-operand tile is exactly
    # 32 B (feasible); staging all three needs 96 B (infeasible).
    t = TileMapping(4, 4, 4)
    sizes = [staged_tile_bytes(p, t, dtype_bytes=2) for p in ReusePolicy]
    assert sizes == [32, 32, 32, 96]


def test_search_matches_brute_force_exactly():
    pe = make_pe(sram_capacity_bytes=8 << 10)
    dram = make_dram()
    for shape in (GemmShape(64, 64, 64), GemmShape(1, 256, 512),
                  GemmShape(128, 32, 512), GemmShape(17, 9, 33)):
        got = search(shape, pe, dram, 65.0, clock_hz=CLOCK, dtype_bytes=2)
        (bp, bt, bc), n_eval = brute_force(shape, pe, dram, 65.0)
        assert got.policy is bp
        assert got.tiling == bt
        assert got.cost.latency_s == bc.latency_s
        assert got.cost.energy_j == bc.energy_j
        assert got.evaluated == n_eval
        assert got.evaluated <= got.search_space_size


def test_search_beats_or_ties_fixed_policies():
    pe = make_pe(sram_capacity_bytes=4 << 10)
    dram = make_dram()
    shape = GemmShape(256, 128, 256)
    full = search(shape, pe, dram, 65.0, clock_hz=CLOCK, dtype_bytes=2)
    for p in ReusePolicy:
        try:
            fixed = search(shape, pe, dram, 65.0, clock_hz=CLOCK,
                           dtype_bytes=2, policies=(p,))
        except NoFeasibleMapping:
            continue
        assert full.cost.latency_s <= fixed.cost.latency_s


def test_no_feasible_mapping():
    pe = make_pe(sram_capacity_bytes=1)
    with pytest.raises(NoFeasibleMapping):
        search(GemmShape(8, 8, 8), pe, make_dram(), 65.0,
               clock_hz=CLOCK, dtype_bytes=2)


def test_gemv_traffic_near_weight_size():
    # decode row: weights stream once, so DRAM traffic ~ n*k elements
    pe = make_pe()
    dram = make_dram()
    shape = GemmShape(1, 1024, 1024)
    got = search(shape, pe, dram, 65.0, clock_hz=CLOCK, dtype_bytes=2)
    weight_bytes = shape.n * shape.k * 2
    assert got.cost.dram_bytes < 1.2 * weight_bytes
    ai = shape.flops / got.cost.dram_bytes
    assert 0.8 < ai < 1.2  # ~1 FLOP/byte at 2-byte weights


def test_prefill_ai_exceeds_decode_ai():
    pe = make_pe(sram_capacity_bytes=256 << 10)
    dram = make_dram()
    dec = search(GemmShape(1, 1024, 1024), pe, dram, 65.0, clock_hz=CLOCK, dtype_bytes=2)
    pre = search(GemmShape(4096, 1024, 1024), pe, dram, 65.0, clock_hz=CLOCK, dtype_bytes=2)
    ai_dec = dec.cost.compute.energy_j and (2 * 1024 * 1024) / dec.cost.dram_bytes
    ai_pre = (2 * 4096 * 1024 * 1024) / pre.cost.dram_bytes
    assert ai_pre >= 100 * ai_dec


def test_deterministic_reruns():
    pe = make_pe()
    dram = make_dram()
    a = search(GemmShape(96, 96, 96), pe, dram, 72.0, clock_hz=CLOCK, dtype_bytes=2)
    b = search(GemmShape(96, 96, 96), pe, dram, 72.0, clock_hz=CLOCK, dtype_bytes=2)
    assert a == b


def test_hotter_dram_never_faster():
    pe = make_pe()
    dram = make_dram()
    shape = GemmShape(64, 512, 512)
    cold = search(shape, pe, dram, 65.0, clock_hz=CLOCK, dtype_bytes=2)
    hot = search(shape, pe, dram, 105.0, clock_hz=CLOCK, dtype_bytes=2)
    assert hot.cost.latency_s >= cold.cost.latency_s


@settings(max_examples=200, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 160)] * 3),
    base_rows=st.sampled_from([1, 2, 4, 8]),
    n_base=st.sampled_from([1, 2, 4]),
    sa_cols=st.integers(1, 40),
    n_core=st.integers(1, 4),
    sram=st.sampled_from([1, 24, 1 << 10, 8 << 10, 256 << 10]),
    dtype_bytes=st.sampled_from([1, 2, 4]),
    policies=st.lists(st.sampled_from(list(ReusePolicy)), max_size=4, unique=True),
    temp=st.one_of(st.floats(40.0, 120.0),
                   st.sampled_from([94.99, 95.0, 95.01, 104.99, 105.01])),
)
def test_grid_search_equals_scalar_brute_force(dims, base_rows, n_base, sa_cols, n_core,
                                               sram, dtype_bytes, policies, temp):
    shape = GemmShape(*dims)
    pe = make_pe(sa_rows=base_rows * n_base, base_sa_rows=base_rows, sa_cols=sa_cols,
                 n_core=n_core, sram_capacity_bytes=sram)
    dram = make_dram(tsv_delay_ns=0.3, refresh_energy_per_cmd_pj=1.5)
    policies = tuple(policies)
    best, n_eval = brute_force(shape, pe, dram, temp, dtype_bytes, policies)
    if best is None:
        with pytest.raises(NoFeasibleMapping):
            search(shape, pe, dram, temp, clock_hz=CLOCK, dtype_bytes=dtype_bytes,
                   policies=policies)
        return
    got = search(shape, pe, dram, temp, clock_hz=CLOCK, dtype_bytes=dtype_bytes,
                 policies=policies)
    assert (got.policy, got.tiling, got.cost) == best
    assert got.evaluated == n_eval
    assert got.search_space_size == len(enumerate_tilings(shape, pe)) * len(policies)


# --- the process-wide memo ---------------------------------------------------------


@pytest.fixture
def search_calls(monkeypatch):
    """Empty memo; records the arguments of every search it runs."""
    calls = []
    real = dataflow.search

    def counting(shape, pe, dram, temp_c, **kw):
        calls.append((shape, temp_c))
        return real(shape, pe, dram, temp_c, **kw)

    monkeypatch.setattr(dataflow, "_cost_lut", CostLut())
    monkeypatch.setattr(dataflow, "search", counting)
    return calls


def test_memo_one_search_per_refresh_bin(search_calls):
    pe, dram = make_pe(), make_dram()  # retention base 85 C: bins (85, 95], (95, 105]
    shape = GemmShape(16, 256, 512)
    assert refresh_derate(dram, 86.0) == refresh_derate(dram, 94.5)
    first = dataflow.cached_search(shape, pe, dram, 86.0, clock_hz=CLOCK, dtype_bytes=2)
    again = dataflow.cached_search(shape, pe, dram, 94.5, clock_hz=CLOCK, dtype_bytes=2)
    assert len(search_calls) == 1
    assert again is first
    assert again == search(shape, pe, dram, 94.5, clock_hz=CLOCK, dtype_bytes=2)


def test_memo_searches_again_across_a_bin_boundary(search_calls):
    pe, dram = make_pe(), make_dram()
    shape = GemmShape(16, 256, 512)
    assert refresh_derate(dram, 94.9) < refresh_derate(dram, 95.1)
    cool = dataflow.cached_search(shape, pe, dram, 94.9, clock_hz=CLOCK, dtype_bytes=2)
    hot = dataflow.cached_search(shape, pe, dram, 95.1, clock_hz=CLOCK, dtype_bytes=2)
    assert [t for _, t in search_calls] == [94.9, 95.1]
    assert hot.cost.latency_s > cool.cost.latency_s


def test_plan_building_makes_no_search(search_calls, tiny_model, system):
    for tp, pp in ((1, 1), (2, 2)):
        build_pd_plan(system, tiny_model, tp_prefill=tp, pp_prefill=pp, tp_decode=tp,
                      pp_decode=pp, kv_budget_decode_bytes=1 << 20, ref_tokens=8)
    assert search_calls == []


def test_layer_estimates_and_serving_share_searches(search_calls, monkeypatch,
                                                   tiny_model, system):
    plan = build_pd_plan(system, tiny_model, tp_prefill=1, pp_prefill=1, tp_decode=1,
                         pp_decode=1, kv_budget_decode_bytes=1 << 20, ref_tokens=8)
    monkeypatch.setattr(dataflow, "_cost_lut", CostLut())
    search_calls.clear()
    estimate_layer_costs(tiny_model, system.chiplet_types["pc"], ops.Phase.PREFILL,
                         6, 6, 65.0)
    gemms = {op.shape for op in ops.layer_ops(tiny_model, 1, ops.Phase.PREFILL, [(6, 6)])
             if op.kind is ops.OpKind.GEMM}
    assert {shape for shape, _ in search_calls} == gemms
    assert len(search_calls) == len(gemms)
    req = serving.Request(rid=0, arrival_s=0.0, input_len=6, output_len=1)
    serving.simulate(system, tiny_model, plan, (req,), serving.SimConfig(len_bucket=1),
                     temps=66.0)
    assert len(search_calls) == len(gemms)  # the prefill stage reused every estimate
