"""End-to-end acceptance properties, one test per headline guarantee.

Each test pins one system-level property at its stated scale and tolerance,
so `pytest -v tests/test_acceptance.py` reads as the acceptance checklist.
Oracles are recomputed here (or imported from the unit suites that own them)
rather than trusted from the modules under test. The reference-system tests
share one module-scoped set of mapping searches; those searches dominate the
suite's runtime (a few minutes).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

import lamosim
from conftest import make_dram, make_model, make_pe, make_system
from lamosim import dataflow, ops
from lamosim.cli import main
from lamosim.compute import GemmShape, vpu_cycles
from lamosim.dram import effective_bandwidth
from lamosim.dse import (
    DesignPoint,
    Slo,
    chiplet_dse,
    evaluate_design,
    search_plan,
    system_dse,
)
from lamosim.hwspec import Role, derive_chiplet_metrics, load_model, load_system
from lamosim.mapping import build_pd_plan, place_stages, pool_pe_coords, tp_group
from lamosim.serving import (
    Request,
    SimConfig,
    TRACE_MEANS,
    roofline_check,
    simulate,
    synth_trace,
)
from lamosim.thermal import (
    ChipPower,
    _temperature_power,
    equilibrium,
    solve_steady,
)
from test_dse import _candidates as toy_candidates, _trace as toy_trace
from test_mapping import brute_grouping_obj, placement_objective

CONFIGS = Path(lamosim.__file__).parent / "configs"


@pytest.fixture(scope="module")
def ref_system():
    return load_system(str(CONFIGS / "system_ref.json"))


@pytest.fixture(scope="module")
def mid_model():
    return load_model(str(CONFIGS / "model_mid.json"))


@pytest.fixture(scope="module")
def profile_plans(ref_system, mid_model):
    """One mapping search per trace family, shaped by that family's means."""
    plans = {}
    for family, (mean_in, mean_out) in TRACE_MEANS.items():
        plans[family] = search_plan(
            ref_system, mid_model,
            ref_prefill_tokens=mean_in,
            ref_decode_ctx=mean_in + mean_out,
            ref_decode_batch=8)
    return plans


# 1. Tiling/policy search returns exactly the brute-force optimum.


def test_dataflow_search_matches_brute_force_on_random_shapes():
    pe = make_pe(sram_capacity_bytes=8 << 10)
    dram = make_dram()
    clock = 1.0e9
    rng = random.Random(2024)
    pow2 = [1 << i for i in range(10)]  # 1 .. 512
    t0 = time.perf_counter()
    for _ in range(50):
        shape = GemmShape(rng.choice(pow2), rng.choice(pow2), rng.choice(pow2))
        got = dataflow.search(shape, pe, dram, 65.0, clock_hz=clock, dtype_bytes=2)
        best = None
        n_eval = 0
        for t in dataflow.enumerate_tilings(shape, pe):
            for p in dataflow.ReusePolicy:
                if dataflow.staged_tile_bytes(p, t, 2) > pe.sram_capacity_bytes:
                    continue
                c = dataflow.evaluate_mapping(shape, p, t, pe, dram, 65.0, clock, 2)
                n_eval += 1
                key = (c.latency_s, c.energy_j, (t.t_m, t.t_n, t.t_k),
                       list(dataflow.ReusePolicy).index(p))
                if best is None or key < best:
                    best = key
        assert (got.cost.latency_s, got.cost.energy_j,
                (got.tiling.t_m, got.tiling.t_n, got.tiling.t_k),
                list(dataflow.ReusePolicy).index(got.policy)) == best
        assert got.evaluated == n_eval
    assert time.perf_counter() - t0 < 10.0


# 2. The joint search never loses to a fixed reuse policy, and the policy
#    dimension strictly pays off on a constrained-SRAM decode case.


def test_joint_search_dominates_fixed_policies():
    pe = make_pe(sram_capacity_bytes=64 << 10)
    dram = make_dram()
    clock = 1.0e9
    prefill = [GemmShape(seq, 4096, 4096) for seq in (64, 512, 2048, 8192)]
    decode = [GemmShape(b, 4096, 4096) for b in (1, 2, 4, 8, 16, 32)]
    strict_decode_win = False
    for shape in prefill + decode:
        full = dataflow.search(shape, pe, dram, 65.0, clock_hz=clock, dtype_bytes=2)
        for p in dataflow.ReusePolicy:
            try:
                fixed = dataflow.search(shape, pe, dram, 65.0, clock_hz=clock,
                                        dtype_bytes=2, policies=(p,))
            except dataflow.NoFeasibleMapping:
                if shape in decode:
                    strict_decode_win = True
                continue
            assert full.cost.latency_s <= fixed.cost.latency_s
            if shape in decode and full.cost.latency_s < fixed.cost.latency_s:
                strict_decode_win = True
    assert strict_decode_win


# 3. Exact TP grouping on every mesh small enough to enumerate.


def test_tp_grouping_matches_exhaustive_partitions():
    t0 = time.perf_counter()
    checked = 0
    for total in range(2, 10):
        for w in range(1, total + 1):
            if total % w:
                continue
            coords = [(x, y) for y in range(total // w) for x in range(w)]
            for tp in (2, 3):
                if total < tp:
                    continue
                got = tp_group(coords, tp, 0.5)
                assert got.proven_optimal
                want = brute_grouping_obj(coords, tp, 0.5)
                assert got.objective == pytest.approx(want, abs=1e-12)
                checked += 1
    assert checked >= 20
    assert time.perf_counter() - t0 < 60.0


# 4. Annealed stage placement lands within 1% of exhaustive assignment.


def test_stage_placement_within_one_percent_of_exhaustive():
    spec = make_system()
    pool = pool_pe_coords(spec, Role.PREFILL)
    flats = [(m.chip[0] * 2 + m.pe[0], m.chip[1] * 2 + m.pe[1]) for m in pool]
    singles = tp_group(flats, 1, 0.5)   # 8 groups
    pairs = tp_group(flats, 2, 0.5)     # 4 groups
    cases = [
        (singles, 2, 6, 4096),
        (singles, 3, 6, 2048),
        (singles, 4, 8, 1024),
        (pairs, 3, 6, 4096),
    ]
    for grouping, n_stages, n_layers, act in cases:
        best = min(
            placement_objective(list(a), grouping, pool, n_layers, act, spec)
            for a in itertools.permutations(range(len(grouping.groups)), n_stages)
        )
        for seed in range(20):
            placed = place_stages(grouping, pool, n_stages, n_layers, act_bytes=act,
                                  spec=spec, seed=seed)
            assert placed.objective <= best * 1.01 + 1e-15


# 5. Refresh derating and leakage slopes hit the calibrated numbers.


def test_refresh_derate_and_leakage_calibration(ref_system):
    d = ref_system.chiplet_types["pc"].dram
    k = (d.t_rfc_ns / d.t_rfi_base_ns) / 0.05
    assert k == pytest.approx(0.67, rel=0.01)
    bw65 = effective_bandwidth(d, 65.0)
    bw105 = effective_bandwidth(d, 105.0)
    # two 10-degree bins above the retention base quarter the refresh interval
    assert bw105 / bw65 == pytest.approx((1 - 0.20 * k) / (1 - 0.05 * k), rel=1e-12)
    drop = 1.0 - bw105 / bw65
    assert 0.09 <= drop <= 0.11

    spec = make_system()
    chip = next(iter(spec.placement))
    dyn = {c: ChipPower(0.0, (0.0,) * spec.chiplet_at(c).dram.n_layer)
           for c in spec.placement}
    cold = {c: (65.0,) * spec.chiplet_at(c).dram.n_layer for c in spec.placement}
    leak65 = _temperature_power(
        spec, dyn, {c: 65.0 for c in spec.placement}, cold)[chip].logic_w
    leak105 = _temperature_power(
        spec, dyn, {c: 105.0 for c in spec.placement}, cold)[chip].logic_w
    assert leak105 / leak65 == pytest.approx(1.20, rel=0.005)


# 6. No operator ever beats its roofline on the reference system.


def test_roofline_clean_on_reference_system_traces(ref_system, mid_model,
                                                   profile_plans):
    rates = {"code": 0.5, "reason": 0.2, "longbench": 0.1}
    for family, choice in profile_plans.items():
        trace = synth_trace(family, 4, rates[family], seed=5)
        cfg = SimConfig(max_prefill_batch=2, max_decode_batch=8, len_bucket=512,
                        kv_budget_bytes=choice.kv_budget_bytes)
        metrics = simulate(ref_system, mid_model, choice.plan, trace, cfg)
        violations = roofline_check(metrics, ref_system, choice.plan)
        assert violations == [], f"{family}: {violations[:3]}"
        assert metrics.total_tokens > 0


# 7. Serving timing decomposes into the cost primitives on a tiny model.


def test_serving_latency_composition_on_tiny_model():
    spec = make_system()
    model = make_model()

    def layer_latency(chiplet, phase, batch):
        total = 0.0
        for op in ops.layer_ops(model, 1, phase, batch):
            if op.kind is ops.OpKind.GEMM:
                total += dataflow.search(
                    op.shape, chiplet.pe, chiplet.dram, 65.0,
                    clock_hz=chiplet.clock_hz,
                    dtype_bytes=model.dtype_bytes).cost.latency_s
            elif op.kind is ops.OpKind.VPU:
                total += vpu_cycles(op.elements, chiplet.pe) / chiplet.clock_hz
        return total

    plan = build_pd_plan(spec, model, tp_prefill=1, pp_prefill=1, tp_decode=1,
                         pp_decode=1, kv_budget_decode_bytes=1 << 20, ref_tokens=8)
    req = Request(rid=0, arrival_s=0.25, input_len=6, output_len=1)
    m = simulate(spec, model, plan, (req,), SimConfig(len_bucket=1))
    hand_ttft = model.n_layers * layer_latency(
        spec.chiplet_types["pc"], ops.Phase.PREFILL, [(6, 6)])
    assert m.requests[0].ttft_s == pytest.approx(hand_ttft, rel=1e-9)

    mixed = synth_trace("custom", 12, 50.0, seed=3, mean_input=16, mean_output=6)
    plan2 = build_pd_plan(spec, model, tp_prefill=2, pp_prefill=1, tp_decode=2,
                          pp_decode=2, kv_budget_decode_bytes=1 << 20, ref_tokens=8)
    mm = simulate(spec, model, plan2, mixed, SimConfig(len_bucket=4))
    for r in mm.requests:
        assert r.e2e_s == pytest.approx(
            r.ttft_s + r.tbt_mean_s * (r.out_tokens - 1), rel=1e-12)

    cont = simulate(spec, model, plan2, mixed,
                    SimConfig(len_bucket=4, continuous_batching=True,
                              max_decode_batch=4))
    stat = simulate(spec, model, plan2, mixed,
                    SimConfig(len_bucket=4, continuous_batching=False,
                              max_decode_batch=4))
    assert cont.throughput_tok_s >= stat.throughput_tok_s


# 8. Prefill always ends up at least as tensor-parallel as decode.


def test_prefill_tensor_parallel_width_at_least_decode(profile_plans):
    for family, choice in profile_plans.items():
        assert choice.prefill_tp >= choice.decode_tp, (
            f"{family}: prefill tp {choice.prefill_tp} < decode tp {choice.decode_tp}")


# 9. The thermal fixed point converges, is self-consistent, and deeper DRAM
#    stacks run hotter at equal power.


def test_thermal_fixed_point_consistency_and_stack_depth(ref_system):
    for spec in (ref_system, load_system(str(CONFIGS / "system_small.json"))):
        dyn = {}
        for chip in spec.placement:
            n = spec.chiplet_at(chip).dram.n_layer
            dyn[chip] = ChipPower(40.0, (12.0 / n,) * n)
        res = equilibrium(spec, dyn)
        assert res.iterations <= 20
        assert not res.over_limit
        # Self-consistency: power at the converged temperatures resolves to
        # the converged temperatures (within the fixed point's own tolerance),
        # so the derate and leakage the simulator reads there are the solved ones.
        p = _temperature_power(spec, dyn, res.logic_c, res.dram_c)
        logic, dram = solve_steady(spec, p, spec.cooling.flow_levels[res.flow_level])
        assert max(abs(logic[c] - res.logic_c[c]) for c in logic) <= 0.5
        assert max(abs(a - b) for c in dram
                   for a, b in zip(dram[c], res.dram_c[c])) <= 0.5

    pc_only = replace(ref_system, placement={(0, 0): "pc"})
    dc_only = replace(ref_system, placement={(0, 0): "dc"})
    power = 180.0
    temps = {}
    for name, spec in (("pc", pc_only), ("dc", dc_only)):
        n = spec.chiplet_at((0, 0)).dram.n_layer
        powers = {(0, 0): ChipPower(power, (48.0 / n,) * n)}
        logic, _ = solve_steady(spec, powers, spec.cooling.flow_levels[0])
        temps[name] = logic[(0, 0)]
    assert temps["dc"] >= temps["pc"]  # 8 DRAM layers vs 4


# 10. DSE fronts and rankings equal exhaustive enumeration, and the winner
#     survives an independent re-check.


def test_dse_fronts_and_ranking_match_exhaustive(tmp_path):
    base = load_system(str(CONFIGS / "system_small.json")).chiplet_types["pc"]
    res = chiplet_dse(base, 200, seed=11)
    assert res.valid
    by_cap = {}
    for c in res.valid:
        by_cap.setdefault(c.dram.capacity_bytes, []).append(c)
    want = set()
    for group in by_cap.values():
        objs = {}
        for c in group:
            m = derive_chiplet_metrics(c)
            objs[c] = (m.peak_flops, m.peak_bw_bytes, 1.0 / m.peak_power_w)
        for c in group:
            dominated = any(
                all(q >= p for q, p in zip(objs[d], objs[c]))
                and any(q > p for q, p in zip(objs[d], objs[c]))
                for d in group if d is not c)
            if not dominated:
                want.add(c)
    assert set(res.front) == want
    assert set(res.front) <= set(res.retained)

    template = make_system()
    model = make_model()
    trace = toy_trace()
    pc, dc = toy_candidates()
    counts = [(2, 2), (3, 1)]
    slo = Slo()
    res2 = system_dse(template, model, trace, pc, dc, counts, slo,
                      budget=100, seed=0)
    assert res2.exhaustive
    assert res2.recheck_ok
    brute = {}
    for i in range(len(pc)):
        for j in range(len(dc)):
            for npc, ndc in counts:
                ev = evaluate_design(
                    point=DesignPoint(pc=i, dc=j, n_pc=npc, n_dc=ndc),
                    pc_candidates=tuple(pc), dc_candidates=tuple(dc),
                    template=template, model=model, trace=trace, slo=slo)
                brute[(i, j, npc, ndc)] = ev
    for ev in res2.evaluated:
        key = (ev.point.pc, ev.point.dc, ev.point.n_pc, ev.point.n_dc)
        assert ev == brute[key]
    best_key = max(brute, key=lambda k: (brute[k].feasible,
                                         brute[k].tokens_per_joule))
    assert (res2.best.point.pc, res2.best.point.dc,
            res2.best.point.n_pc, res2.best.point.n_dc) == best_key
    fresh = evaluate_design(
        point=res2.best.point, pc_candidates=tuple(pc), dc_candidates=tuple(dc),
        template=template, model=model, trace=trace, slo=slo)
    assert fresh == res2.best

    t0 = time.perf_counter()
    code = main(["dse", "--level", "system", "--system", "system_small.json",
                 "--model", "model_tiny.json",
                 "--trace", "custom:rate=40:n=16:mean_in=8:mean_out=5",
                 "--budget", "6", "--counts", "2,2", "--counts", "3,1",
                 "--jobs", "2", "--out", str(tmp_path / "demo")])
    assert code == 0
    assert time.perf_counter() - t0 < 300.0


# 11. Every command is byte-stable across reruns and worker counts.


def test_commands_byte_stable_across_reruns_and_jobs(tmp_path):
    def digest(out: Path) -> str:
        return json.loads((out / "manifest.json").read_text())["result_digest"]

    runs = {
        "dataflow": ["dataflow", "--shape", "8x64x64", "--pe", "system_small.json",
                     "--type", "pc", "--dump-all"],
        "gen-trace": ["gen-trace", "--source", "reason", "--n", "20",
                      "--rate", "2.0", "--seed", "9"],
        "simulate": ["simulate", "--system", "system_small.json",
                     "--model", "model_tiny.json",
                     "--trace", "custom:rate=40:n=12:mean_in=8:mean_out=5",
                     "--seed", "4", "--thermal"],
    }
    for name, argv in runs.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert digest(a) == digest(b), name

    dse_argv = ["dse", "--level", "system", "--system", "system_small.json",
                "--model", "model_tiny.json",
                "--trace", "custom:rate=40:n=12:mean_in=8:mean_out=5",
                "--budget", "6", "--counts", "2,2", "--counts", "3,1"]
    outs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"dse_j{jobs}"
        assert main(dse_argv + ["--jobs", jobs, "--out", str(out)]) == 0
        outs.append(digest(out))
    assert outs[0] == outs[1] == outs[2]
