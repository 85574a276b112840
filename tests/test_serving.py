"""Serving simulator: trace statistics, a fully hand-composed latency oracle
for the single-request path, batching-mode orderings, and KV budget behavior.

The timing oracle rebuilds one request's life from the cost primitives alone
(dataflow.search, vpu_cycles, link_delay), never touching the event engine,
so it checks the bookkeeping rather than the cost model.
"""

from __future__ import annotations

from collections import defaultdict, deque

import pytest

from conftest import make_chiplet, make_dram, make_model, make_system
from lamosim import dataflow, ops, serving
from lamosim.compute import vpu_cycles
from lamosim.comm import allreduce_cost, manhattan, link_delay
from lamosim.hwspec import PowerConsts, Role
from lamosim.mapping import build_pd_plan
from lamosim.serving import (
    KvOverflow,
    PlanMismatch,
    Request,
    SimConfig,
    simulate,
    roofline_check,
    synth_trace,
)


# --- traces ---------------------------------------------------------------------


def test_trace_means_and_rate():
    tr = synth_trace("code", 4000, rate_rps=5.0, seed=1)
    mean_in = sum(r.input_len for r in tr) / len(tr)
    mean_out = sum(r.output_len for r in tr) / len(tr)
    assert mean_in == pytest.approx(2071, rel=0.05)
    assert mean_out == pytest.approx(25, rel=0.05)
    span = tr[-1].arrival_s - tr[0].arrival_s
    assert len(tr) / span == pytest.approx(5.0, rel=0.1)
    assert all(r.input_len >= 1 and r.output_len >= 1 for r in tr)
    arrivals = [r.arrival_s for r in tr]
    assert arrivals == sorted(arrivals)


def test_trace_deterministic_and_seeded():
    a = synth_trace("reason", 50, 2.0, seed=7)
    b = synth_trace("reason", 50, 2.0, seed=7)
    c = synth_trace("reason", 50, 2.0, seed=8)
    assert a == b
    assert a != c


def test_trace_custom_and_unknown():
    tr = synth_trace("custom", 100, 1.0, seed=0, mean_input=64, mean_output=8)
    assert sum(r.input_len for r in tr) / 100 == pytest.approx(64, rel=0.2)
    with pytest.raises(ValueError):
        synth_trace("chat", 10, 1.0, seed=0)
    with pytest.raises(ValueError, match="fixed means"):
        synth_trace("code", 10, 1.0, seed=0, mean_input=50)


def test_trace_csv_roundtrip(tmp_path):
    tr = synth_trace("longbench", 20, 3.0, seed=5)
    p = tmp_path / "t.csv"
    serving.dump_trace_csv(tr, str(p))
    assert serving.load_trace_csv(str(p)) == tr


# --- single-request timing oracle -------------------------------------------------


def _plan(system, model, **kw):
    args = dict(tp_prefill=1, pp_prefill=1, tp_decode=1, pp_decode=1,
                kv_budget_decode_bytes=1 << 20, ref_tokens=8)
    args.update(kw)
    return build_pd_plan(system, model, **args)


def _layer_latency(model, chiplet, phase, batch, temp=65.0):
    """Hand-composed single-layer latency from the cost primitives."""
    total = 0.0
    for op in ops.layer_ops(model, 1, phase, batch):
        if op.kind is ops.OpKind.GEMM:
            total += dataflow.search(
                op.shape, chiplet.pe, chiplet.dram, temp,
                clock_hz=chiplet.clock_hz,
                dtype_bytes=model.dtype_bytes).cost.latency_s
        elif op.kind is ops.OpKind.VPU:
            total += vpu_cycles(op.elements, chiplet.pe) / chiplet.clock_hz
    return total


def test_ttft_and_e2e_match_hand_composition(tiny_model, system):
    plan = _plan(system, tiny_model)
    req = Request(rid=0, arrival_s=0.5, input_len=6, output_len=3)
    cfg = SimConfig(len_bucket=1, kv_budget_bytes=None)
    m = simulate(system, tiny_model, plan, (req,), cfg)

    pc = system.chiplet_types["pc"]
    dc = system.chiplet_types["dc"]
    prefill_s = tiny_model.n_layers * _layer_latency(
        tiny_model, pc, ops.Phase.PREFILL, [(6, 6)])
    assert m.requests[0].ttft_s == pytest.approx(prefill_s, rel=1e-9)

    # KV migration: one chunk per layer, serialized on one bridge, sent as
    # each layer's qkv completes during the (single) prefill stage.
    pre_ops = ops.layer_ops(tiny_model, 1, ops.Phase.PREFILL, [(6, 6)])
    qkv_off = 0.0
    for op in pre_ops:
        if op.kind is ops.OpKind.GEMM:
            qkv_off += dataflow.search(op.shape, pc.pe, pc.dram, 65.0,
                                       clock_hz=pc.clock_hz,
                                       dtype_bytes=2).cost.latency_s
        elif op.kind is ops.OpKind.VPU:
            qkv_off += vpu_cycles(op.elements, pc.pe) / pc.clock_hz
        if op.tag == "qkv":
            break
    layer_s = prefill_s / tiny_model.n_layers
    src = plan.prefill.stage_members[0][0]
    dst = plan.decode.stage_members[0][0]
    chunk_bytes = 6 * 2 * tiny_model.n_kv_heads * tiny_model.d_head * 2
    lat = link_delay(chunk_bytes, *manhattan(src, dst, system), system)
    t0 = req.arrival_s
    free = 0.0
    for layer in range(tiny_model.n_layers):
        ready = t0 + layer * layer_s + qkv_off
        start = max(ready, free)
        free = start + lat
    admit = max(t0 + prefill_s, free)

    d1 = tiny_model.n_layers * _layer_latency(tiny_model, dc, ops.Phase.DECODE, [(1, 7)])
    d2 = tiny_model.n_layers * _layer_latency(tiny_model, dc, ops.Phase.DECODE, [(1, 8)])
    e2e = (admit + d1 + d2) - t0
    assert m.requests[0].e2e_s == pytest.approx(e2e, rel=1e-9)
    assert m.makespan_s == pytest.approx(t0 + m.requests[0].e2e_s, rel=1e-12)


def test_e2e_is_ttft_plus_gap_sum(tiny_model, system):
    plan = _plan(system, tiny_model, tp_prefill=2, tp_decode=2, pp_decode=2)
    tr = synth_trace("custom", 12, 50.0, seed=3, mean_input=16, mean_output=6)
    m = simulate(system, tiny_model, plan, tr, SimConfig(len_bucket=4))
    for r in m.requests:
        assert r.e2e_s == pytest.approx(
            r.ttft_s + r.tbt_mean_s * (r.out_tokens - 1), rel=1e-9)
        assert r.ttft_s > 0


@pytest.mark.parametrize("continuous", [True, False])
def test_gap_sums_equal_per_token_gap_log(tiny_model, system, monkeypatch,
                                          continuous):
    """Log each request's decode gaps in token order as every beat ends and
    sum them left to right: tbt_mean_s and e2e_s match the log exactly."""
    gaps: dict = defaultdict(list)
    finish_beat = serving._Sim._finish_beat

    def spy(self, beat):
        for st in beat:
            gaps[st.req.rid].append(self.now - st.last_tok)
        finish_beat(self, beat)

    monkeypatch.setattr(serving._Sim, "_finish_beat", spy)
    plan = _plan(system, tiny_model, tp_prefill=2, tp_decode=2, pp_decode=2)
    tr = synth_trace("custom", 10, 50.0, seed=3, mean_input=16, mean_output=6)
    m = simulate(system, tiny_model, plan, tr,
                 SimConfig(len_bucket=4, continuous_batching=continuous))
    assert sum(len(g) > 1 for g in gaps.values()) > 1
    for r in m.requests:
        g = gaps[r.rid]
        assert len(g) == r.out_tokens - 1
        total = 0.0
        for gap in g:  # not sum(): Python 3.12 compensates float sums
            total += gap
        assert r.tbt_mean_s == (total / len(g) if g else 0.0)
        assert r.e2e_s == r.ttft_s + total


def test_output_len_one_never_decodes(tiny_model, system):
    plan = _plan(system, tiny_model)
    reqs = tuple(Request(i, 0.01 * i, 8, 1) for i in range(3))
    m = simulate(system, tiny_model, plan, reqs, SimConfig(len_bucket=1))
    assert all(r.tbt_mean_s == 0.0 for r in m.requests)
    assert all(r.e2e_s == r.ttft_s for r in m.requests)
    assert not any(rec.phase is ops.Phase.DECODE for rec in m.op_records)


# --- batching modes ---------------------------------------------------------------


def test_continuous_at_least_static_throughput(tiny_model, system):
    plan = _plan(system, tiny_model, tp_prefill=2, tp_decode=2)
    tr = synth_trace("custom", 16, 200.0, seed=11, mean_input=12, mean_output=10)
    cont = simulate(system, tiny_model, plan, tr,
                    SimConfig(len_bucket=4, continuous_batching=True,
                              max_decode_batch=4))
    stat = simulate(system, tiny_model, plan, tr,
                    SimConfig(len_bucket=4, continuous_batching=False,
                              max_decode_batch=4))
    assert cont.throughput_tok_s >= stat.throughput_tok_s
    assert cont.makespan_s <= stat.makespan_s


def test_batched_beats_beat_serial_decode(tiny_model, system):
    # Same token work, one beat of 8 vs eight beats of 1.
    plan = _plan(system, tiny_model, tp_decode=2)
    tr = tuple(Request(i, 0.0, 8, 4) for i in range(8))
    wide = simulate(system, tiny_model, plan, tr,
                    SimConfig(len_bucket=4, max_decode_batch=8))
    narrow = simulate(system, tiny_model, plan, tr,
                      SimConfig(len_bucket=4, max_decode_batch=1))
    assert wide.makespan_s < narrow.makespan_s


# --- KV budget --------------------------------------------------------------------


def test_kv_budget_queues_and_flags(tiny_model, system):
    plan = _plan(system, tiny_model)
    per_req = (8 + 4) * tiny_model.kv_bytes_per_token()
    reqs = tuple(Request(i, 0.0, 8, 4) for i in range(4))
    tight = simulate(system, tiny_model, plan, reqs,
                     SimConfig(len_bucket=1, kv_budget_bytes=2 * per_req,
                               max_decode_batch=8))
    roomy = simulate(system, tiny_model, plan, reqs,
                     SimConfig(len_bucket=1, kv_budget_bytes=None,
                               max_decode_batch=8))
    assert tight.kv_overflow
    assert not roomy.kv_overflow
    assert any(r.kv_wait_s > 0 for r in tight.requests)
    assert all(r.kv_wait_s == 0 for r in roomy.requests)
    assert tight.makespan_s >= roomy.makespan_s


def test_kv_budget_single_request_overflow(tiny_model, system):
    plan = _plan(system, tiny_model)
    req = Request(0, 0.0, 64, 8)
    with pytest.raises(KvOverflow):
        simulate(system, tiny_model, plan, (req,),
                 SimConfig(len_bucket=1, kv_budget_bytes=16))


# --- consistency checks -----------------------------------------------------------


def test_plan_mismatch_on_layer_count(tiny_model, system):
    plan = _plan(system, tiny_model)
    other = make_model(n_layers=4)
    with pytest.raises(PlanMismatch):
        simulate(system, other, plan, (Request(0, 0.0, 4, 2),), SimConfig())


def test_roofline_holds_on_mixed_trace(tiny_model, system):
    plan = _plan(system, tiny_model, tp_prefill=2, tp_decode=2, pp_decode=2)
    tr = synth_trace("custom", 20, 100.0, seed=9, mean_input=64, mean_output=8)
    m = simulate(system, tiny_model, plan, tr, SimConfig(len_bucket=16))
    assert m.op_records
    assert roofline_check(m, system, plan) == []


def test_roofline_flags_every_timed_record_under_tiny_slack(tiny_model, system, monkeypatch):
    plan = _plan(system, tiny_model, tp_prefill=2, tp_decode=2, pp_decode=2)
    tr = synth_trace("custom", 8, 100.0, seed=9, mean_input=32, mean_output=6)
    m = simulate(system, tiny_model, plan, tr, SimConfig(len_bucket=16))
    timed = [rec for rec in m.op_records if rec.latency_s > 0.0]
    assert timed
    monkeypatch.setattr(serving, "ROOF_SLACK", 1e-6)
    assert len(roofline_check(m, system, plan)) == len(timed)


def test_op_records_do_not_grow_with_trace_length(tiny_model, system):
    # One bucket holds every context, so each decode beat reuses one stage cost.
    plan = _plan(system, tiny_model, tp_decode=2, pp_decode=2)
    records = [
        simulate(system, tiny_model, plan, (Request(0, 0.0, 8, out),),
                 SimConfig(len_bucket=128)).op_records
        for out in (4, 64)
    ]
    assert len(records[0]) == len(records[1]) > 0
    assert all(len(set(r)) == len(r) for r in records)


def _static_w(system) -> float:
    static_w = 0.0
    for coord in system.placement:
        c = system.chiplet_at(coord)
        static_w += c.n_pe * c.power.leak_base_w_per_pe
        static_w += c.dram.n_layer * (c.power.dram_static_w_per_layer
                                      + c.power.refresh_w_per_layer)
    return static_w


def test_energy_totals_equal_per_pe_execution_log(tiny_model, monkeypatch):
    """Rebuild the per-PE log of every stage execution and sum it in
    execution order: the run's energy and every chiplet total match exactly,
    under continuous and static batching and with a two-stage prefill.
    Without static power the run's energy is small enough to show a change
    in the summation order."""
    zero = PowerConsts(leak_base_w_per_pe=0.0, dram_static_w_per_layer=0.0,
                       refresh_w_per_layer=0.0)
    system = make_system(chiplet_types={
        "pc": make_chiplet(Role.PREFILL, power=zero),
        "dc": make_chiplet(Role.DECODE, power=zero, dram=make_dram(
            n_layer=4, capacity_bytes=4 * 8 * (16 << 20)))})
    runs = []
    run_stage = serving._Sim._run_stage

    def spy(self, ctx, s, cost):
        runs.append((self, list(ctx.members[s]), cost))
        run_stage(self, ctx, s, cost)

    monkeypatch.setattr(serving._Sim, "_run_stage", spy)
    tr = synth_trace("custom", 6, 100.0, seed=4, mean_input=16, mean_output=4)
    for continuous, pp_prefill in ((True, 1), (False, 1), (True, 2)):
        runs.clear()
        plan = _plan(system, tiny_model, tp_prefill=2, pp_prefill=pp_prefill,
                     tp_decode=2, pp_decode=2)
        m = simulate(system, tiny_model, plan, tr,
                     SimConfig(len_bucket=4, continuous_batching=continuous))

        log = [(pe, cost.shard_compute_j, cost.shard_dram_j)
               for _, members, cost in runs for pe in members]
        assert log and m.stage_executions == len(runs)
        compute_j: dict = defaultdict(float)
        dram_j: dict = defaultdict(float)
        for pe, c, d in log:
            compute_j[pe.chip] += c
            dram_j[pe.chip] += d
        assert m.chip_compute_j == compute_j
        assert m.chip_dram_j == dram_j
        dyn = 0.0
        for _, c, d in log:  # not sum(): Python 3.12 compensates float sums
            dyn += c + d
        sim = runs[0][0]
        assert m.energy_j == dyn + sim.comm_energy + _static_w(system) * m.makespan_s

        member_chips = {p.chip for ph in (plan.prefill, plan.decode)
                        for stage in ph.stage_members for p in stage}
        assert set(m.chip_compute_j) | set(m.chip_dram_j) <= member_chips
        assert all(v >= 0 for v in (*m.chip_compute_j.values(), *m.chip_dram_j.values()))


def test_energy_includes_static_floor(tiny_model, system):
    plan = _plan(system, tiny_model)
    m = simulate(system, tiny_model, plan, (Request(0, 0.0, 8, 2),),
                 SimConfig(len_bucket=1))
    assert m.energy_j >= _static_w(system) * m.makespan_s
    assert m.tokens_per_joule == pytest.approx(m.total_tokens / m.energy_j)


# --- engine oracle ----------------------------------------------------------------
# Reference outputs, recorded as literals from earlier engines: the first five
# from the one that scheduled one closure per event and costed every operator
# of every new stage cost on its own, the last from the one that kept a
# separate copy of the stage pipeline per phase. The engine must reproduce
# them exactly. The per-chip totals were re-recorded when a batch came to
# cross the pipeline in one step: it books every stage when it enters, so the
# same stage energies are added in another order (at most 1.9e-16 relative).
# Each case is (plan shape, SimConfig fields, temperatures); together they
# cover continuous and static batching, KV-budget waits, a two-stage prefill
# sending KV per layer, decode pp 2 and 4, both pipelines queueing batches in
# one trace, and per-chip temperatures in different refresh bins. Their
# op_records counts are the distinct records of the engine just before
# records were interned.

_ORACLE_PLAN = dict(tp_prefill=2, pp_prefill=1, tp_decode=2, pp_decode=2)
_ORACLE_TEMPS = {(0, 0): 60.0, (1, 0): 92.0, (2, 0): 75.0, (3, 0): 101.0}
_ORACLE_CASES = {
    "continuous": (_ORACLE_PLAN, {}, 65.0),
    "static": (_ORACLE_PLAN, {"continuous_batching": False, "max_decode_batch": 3}, 65.0),
    "kv_wait": (_ORACLE_PLAN, {"kv_budget_bytes": 8192}, 65.0),
    "pp_prefill2": ({**_ORACLE_PLAN, "tp_prefill": 4, "pp_prefill": 2}, {}, _ORACLE_TEMPS),
    "decode_pp4": ({**_ORACLE_PLAN, "pp_decode": 4}, {}, _ORACLE_TEMPS),
    "pp_prefill2_decode_pp4": ({**_ORACLE_PLAN, "tp_prefill": 4, "pp_prefill": 2,
                                "pp_decode": 4}, {}, _ORACLE_TEMPS),
}


def _oracle_inputs(case: str) -> tuple:
    """simulate's arguments for one case: system, model, plan, trace, config
    and temperatures."""
    shape, fields, temps = _ORACLE_CASES[case]
    model = make_model(n_layers=4)
    system = make_system()
    tr = synth_trace("custom", 6, 4000.0, seed=5, mean_input=24, mean_output=8)
    return (system, model, _plan(system, model, **shape), tr,
            SimConfig(len_bucket=4, **fields), temps)


def _oracle_fingerprint(case: str) -> dict:
    m = simulate(*_oracle_inputs(case))
    return {
        "summary": serving.summary_dict(m),
        "requests": [(r.ttft_s, r.tbt_mean_s, r.e2e_s, r.kv_wait_s) for r in m.requests],
        "energy_j": m.energy_j,
        "chip_compute_j": list(m.chip_compute_j.items()),
        "chip_dram_j": list(m.chip_dram_j.items()),
        "op_records": len(m.op_records),
    }


_ORACLE = {
    "continuous": {
        "summary": {
            "requests": 6, "total_tokens": 42, "makespan_s": 0.0048498304638906154,
            "throughput_tok_s": 8660.096535891462, "energy_j": 0.22794653496445894,
            "tokens_per_joule": 184.25373303677802, "kv_overflow": False,
            "ttft_p50_s": 1.4726046476978795e-05, "ttft_p95_s": 1.977823029105058e-05,
            "tbt_p50_s": 0.0003425441916938344, "tbt_p95_s": 0.0003906329356409212,
            "e2e_p95_s": 0.004165615111888257,
        },
        "requests": [
            (1.4726046476978795e-05, 0.0003425441916938344, 0.001042358621558482, 0.0),
            (1.4726046476978795e-05, 0.00027672593769408516, 0.004165615111888257, 0.0),
            (7.962526476978796e-06, 0.0003297935897016155, 0.002316517654388287, 0.0),
            (1.718411563372997e-05, 0.000356251354199565, 0.00072968682403286, 0.0),
            (1.977823029105058e-05, 0.0003594740397392239, 0.002176622468726394, 0.0),
            (1.9620926476978827e-05, 0.0003906329356409212, 0.0011915197333997425, 0.0),
        ],
        "energy_j": 0.22794653496445894,
        "chip_compute_j": [
            ((0, 0), 6.25024e-07), ((2, 0), 1.4406400000000004e-07),
        ],
        "chip_dram_j": [
            ((0, 0), 2.0328447999999997e-06), ((2, 0), 1.6715775999999984e-06),
        ],
        "op_records": 98,
    },
    "static": {
        "summary": {
            "requests": 6, "total_tokens": 42, "makespan_s": 0.0067917143618354955,
            "throughput_tok_s": 6184.005651946954, "energy_j": 0.3192150781678683,
            "tokens_per_joule": 131.57273221884935, "kv_overflow": False,
            "ttft_p50_s": 1.4726046476978795e-05, "ttft_p95_s": 1.977823029105058e-05,
            "tbt_p50_s": 0.0003414356272574102, "tbt_p95_s": 0.0016015904444816622,
            "e2e_p95_s": 0.005642265348771636,
        },
        "requests": [
            (1.4726046476978795e-05, 0.0002302799264769788, 0.0007055658259079152, 0.0),
            (1.4726046476978795e-05, 0.00030536771720115395, 0.004595241804494288, 0.0),
            (7.962526476978796e-06, 0.0003414356272574102, 0.0023980119172788503, 0.0),
            (1.718411563372997e-05, 0.00041100420564484563, 0.0008391925269234212, 0.0),
            (1.977823029105058e-05, 0.0009370811864134309, 0.005642265348771636, 0.0),
            (1.9620926476978827e-05, 0.0016015904444816622, 0.004824392259921965, 0.0),
        ],
        "energy_j": 0.3192150781678683,
        "chip_compute_j": [
            ((0, 0), 6.25024e-07), ((2, 0), 1.4406400000000004e-07),
        ],
        "chip_dram_j": [
            ((0, 0), 2.0328447999999997e-06), ((2, 0), 1.6715775999999971e-06),
        ],
        "op_records": 98,
    },
    "kv_wait": {
        "summary": {
            "requests": 6, "total_tokens": 42, "makespan_s": 0.007880660687076489,
            "throughput_tok_s": 5329.502394244163, "energy_j": 0.370395830705395,
            "tokens_per_joule": 113.39220509046687, "kv_overflow": True,
            "ttft_p50_s": 1.4726046476978795e-05, "ttft_p95_s": 1.977823029105058e-05,
            "tbt_p50_s": 0.00025430437806389823, "tbt_p95_s": 0.0026542590856683426,
            "e2e_p95_s": 0.0067312116740126295,
        },
        "requests": [
            (1.4726046476978795e-05, 0.00025430437806389823, 0.0007776391806686735, 0.0),
            (1.4726046476978795e-05, 0.00023263495942949818, 0.003504250437919451, 0.0),
            (7.962526476978796e-06, 0.000702448131625959, 0.004925099447858692, 0.0031709494360428656),
            (1.718411563372997e-05, 0.0026542590856683426, 0.005325702286970415, 0.0047755583183827265),
            (1.977823029105058e-05, 0.001118572240620263, 0.0067312116740126295, 0.005298385884859706),
            (1.9620926476978827e-05, 0.00023048689981031213, 0.0007110816259079153, 0.0),
        ],
        "energy_j": 0.370395830705395,
        "chip_compute_j": [
            ((0, 0), 6.25024e-07), ((2, 0), 1.440640000000002e-07),
        ],
        "chip_dram_j": [
            ((0, 0), 2.0328447999999997e-06), ((2, 0), 1.9468287999999987e-06),
        ],
        "op_records": 84,
    },
    "pp_prefill2": {
        "summary": {
            "requests": 6, "total_tokens": 42, "makespan_s": 0.004852022830619971,
            "throughput_tok_s": 8656.183506587791, "energy_j": 0.22805181465193866,
            "tokens_per_joule": 184.16867265056405, "kv_overflow": False,
            "ttft_p50_s": 1.691845320633497e-05, "ttft_p95_s": 2.252299320633518e-05,
            "tbt_p50_s": 0.00034254417836050103, "tbt_p95_s": 0.0003903963689742545,
            "e2e_p95_s": 0.0041678074786176125,
        },
        "requests": [
            (1.691845320633497e-05, 0.00034254417836050103, 0.001044550988287838, 0.0),
            (1.6918413206334915e-05, 0.00027672593769408516, 0.0041678074786176125, 0.0),
            (9.104193206335058e-06, 0.0003299436897016155, 0.002318710021117644, 0.0),
            (1.9419676766489757e-05, 0.00035622975699786316, 0.0007318791907622161, 0.0),
            (1.7693494914677215e-05, 0.00036018689009017883, 0.00217881483545575, 0.0),
            (2.252299320633518e-05, 0.0003903963689742545, 0.0011937121001290988, 0.0),
        ],
        "energy_j": 0.22805181465193866,
        "chip_compute_j": [
            ((0, 0), 5.43328e-07), ((1, 0), 5.43328e-07), ((2, 0), 1.4406400000000004e-07),
        ],
        "chip_dram_j": [
            ((0, 0), 1.8923519999999994e-06), ((1, 0), 1.8923519999999994e-06),
            ((2, 0), 1.6715775999999984e-06),
        ],
        "op_records": 128,
    },
    "decode_pp4": {
        "summary": {
            "requests": 6, "total_tokens": 42, "makespan_s": 0.004401482851147054,
            "throughput_tok_s": 9542.23870009048, "energy_j": 0.20687436366151152,
            "tokens_per_joule": 203.02177252238238, "kv_overflow": False,
            "ttft_p50_s": 1.4726046476978795e-05, "ttft_p95_s": 1.977823029105058e-05,
            "tbt_p50_s": 0.00027159207139266253, "tbt_p95_s": 0.00033231944198050393,
            "e2e_p95_s": 0.003717267499144695,
        },
        "requests": [
            (1.4726046476978795e-05, 0.0002351852542643103, 0.0007202818092699097, 0.0),
            (1.4726046476978795e-05, 0.0002468360968445144, 0.003717267499144695, 0.0),
            (7.962526476978796e-06, 0.00027401213158149, 0.0019260474475474088, 0.0),
            (1.718411563372997e-05, 0.00033231944198050393, 0.0006818229995947378, 0.0),
            (1.977823029105058e-05, 0.00027159207139266253, 0.0016493306586470259, 0.0),
            (1.9620926476978827e-05, 0.00029983407874271473, 0.000919123162705123, 0.0),
        ],
        "energy_j": 0.20687436366151152,
        "chip_compute_j": [
            ((0, 0), 6.25024e-07), ((2, 0), 7.203200000000003e-08),
            ((3, 0), 7.203200000000003e-08),
        ],
        "chip_dram_j": [
            ((0, 0), 2.0328447999999997e-06), ((2, 0), 9.160703999999989e-07),
            ((3, 0), 9.160703999999989e-07),
        ],
        "op_records": 117,
    },
    "pp_prefill2_decode_pp4": {
        "summary": {
            "requests": 6, "total_tokens": 42, "makespan_s": 0.00440367521787641,
            "throughput_tok_s": 9537.488103006315, "energy_j": 0.20697964887859124,
            "tokens_per_joule": 202.91850057507867, "kv_overflow": False,
            "ttft_p50_s": 1.691845320633497e-05, "ttft_p95_s": 2.252299320633518e-05,
            "tbt_p50_s": 0.0002723049217436175, "tbt_p95_s": 0.0003322978447788021,
            "e2e_p95_s": 0.0037194598658740513,
        },
        "requests": [
            (1.691845320633497e-05, 0.00023518524093097694, 0.0007224741759992658, 0.0),
            (1.6918413206334915e-05, 0.0002468360968445144, 0.0037194598658740513, 0.0),
            (9.104193206335058e-06, 0.00027416223158149004, 0.0019282398142767652, 0.0),
            (1.9419676766489757e-05, 0.0003322978447788021, 0.0006840153663240939, 0.0),
            (1.7693494914677215e-05, 0.0002723049217436175, 0.0016515230253763822, 0.0),
            (2.252299320633518e-05, 0.00029959751207604804, 0.0009213155294344794, 0.0),
        ],
        "energy_j": 0.20697964887859124,
        "chip_compute_j": [
            ((0, 0), 5.43328e-07), ((1, 0), 5.43328e-07), ((2, 0), 7.203200000000003e-08),
            ((3, 0), 7.203200000000003e-08),
        ],
        "chip_dram_j": [
            ((0, 0), 1.8923519999999994e-06), ((1, 0), 1.8923519999999994e-06),
            ((2, 0), 9.160703999999989e-07), ((3, 0), 9.160703999999989e-07),
        ],
        "op_records": 147,
    },
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_engine_matches_recorded_outputs(case):
    assert _oracle_fingerprint(case) == _ORACLE[case]


class _StageEventSim(serving._Sim):
    """The engine before a batch crossed the pipeline in one step: each stage
    has a busy flag and a FIFO queue, a batch takes an event at each stage's
    end and at each handoff's arrival, and a key's stage cost is built the
    first time a batch with that key starts the stage. A stage serves
    batches in the order they arrive at it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.overtakes = 0  # batches that start a stage before one that entered earlier
        for ctx in (self.pre, self.dec):
            ctx.stage_busy = [False] * ctx.pp
            ctx.queues = [deque() for _ in range(ctx.pp)]
            ctx.entered = 0
            ctx.last_start = [-1] * ctx.pp  # entry index of the last batch started

    def _set_busy(self, ctx, s, busy):
        ctx.stage_busy[s] = busy
        ctx.busy = ctx.stage_busy[0]

    def _traverse(self, ctx, states, rows, key):
        costs = ctx.costs.setdefault(key, [None] * ctx.pp)
        ctx.entered += 1
        self._start_stage(ctx, 0, (states, rows, key, costs, ctx.entered))

    def _start_stage(self, ctx, s, batch):
        states, _, key, costs, index = batch
        self._set_busy(ctx, s, True)
        self.overtakes += index < ctx.last_start[s]
        ctx.last_start[s] = max(ctx.last_start[s], index)
        if costs[s] is None:
            costs[s] = self._stage_cost(ctx, s, key)
        self._run_stage(ctx, s, costs[s])
        if ctx is self.pre:
            self._schedule_kv_sends(s, states, costs[s], self.now)
        self.at(self.now + costs[s].duration_s, self._end_stage, ctx, s, batch)

    def _end_stage(self, ctx, s, batch):
        self._set_busy(ctx, s, False)
        if s + 1 < ctx.pp:
            delay = self._handoff(ctx, s, batch[1] * self.act_bytes_per_token)
            self.at(self.now + delay, self._enqueue, ctx, s + 1, batch)
        elif ctx is self.pre:
            self._finish_prefill(batch[0])
        else:
            self._finish_beat(batch[0])
        if ctx.queues[s]:
            self._start_stage(ctx, s, ctx.queues[s].popleft())
        elif s == 0 and ctx is self.pre:
            self._try_prefill_admit()
        elif s == 0:
            self._try_decode_start()

    def _enqueue(self, ctx, s, batch):
        if ctx.stage_busy[s]:
            ctx.queues[s].append(batch)
        else:
            self._start_stage(ctx, s, batch)


def _run_both(*args) -> tuple[serving.ServingMetrics, serving.ServingMetrics, _StageEventSim]:
    """The pipeline engine's and the per-stage event engine's metrics, and the
    event engine itself."""
    events = _StageEventSim(*args)
    events.run()
    return simulate(*args), events.metrics(events.spec), events


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_pipeline_traversal_equals_per_stage_event_engine(case):
    """Where no batch overtakes another, crossing the pipeline in one step
    gives the event engine's times, energy and operator records exactly. The
    per-chip totals add the same stage energies in another order. A key's
    later stages are costed when its first batch enters, not when it reaches
    them, so where stages run at different temperatures their distinct
    records are first built, and listed, in another order."""
    new, old, events = _run_both(*_oracle_inputs(case))
    assert events.overtakes == 0
    assert new.requests == old.requests
    assert new.makespan_s == old.makespan_s
    assert new.energy_j == old.energy_j
    assert len(new.op_records) == len(old.op_records)
    assert set(new.op_records) == set(old.op_records)
    if not isinstance(_ORACLE_CASES[case][2], dict):
        assert new.op_records == old.op_records
    assert new.stage_executions == old.stage_executions
    for totals, ref in ((new.chip_compute_j, old.chip_compute_j),
                        (new.chip_dram_j, old.chip_dram_j)):
        assert totals.keys() == ref.keys()
        assert all(totals[c] == pytest.approx(ref[c], rel=1e-12) for c in ref)


def test_stages_serve_batches_in_entry_order(monkeypatch):
    """Slow links make a prompt's handoff take longer than its stage time:
    in the event engine a later, smaller prefill job overtakes at stage 1
    three times (rid 5 passes 4, 7 passes 6, 10 passes 9). The pipeline keeps
    each stage in entry order, so batches leave in the order they entered.
    The requests before the first overtaken one and after the last
    overtaking one keep their times."""
    system = make_system(alpha_noc_s_per_byte=1e-6, alpha_nop_s_per_byte=1e-6)
    model = make_model(n_layers=4)
    plan = _plan(system, model, pp_prefill=2, pp_decode=2)
    tr = synth_trace("custom", 12, 2000.0, seed=3, mean_input=64, mean_output=6)
    args = (system, model, plan, tr, SimConfig(len_bucket=4), 65.0)
    entered, left = defaultdict(list), defaultdict(list)
    traverse = serving._Sim._traverse

    def spy_traverse(self, ctx, states, rows, key):
        entered[ctx.phase].append([st.req.rid for st in states])
        traverse(self, ctx, states, rows, key)

    def spy_finish(phase, finish):
        def spy(self, states):
            left[phase].append([st.req.rid for st in states])
            finish(self, states)
        return spy

    monkeypatch.setattr(serving._Sim, "_traverse", spy_traverse)
    for phase, name in ((Role.PREFILL, "_finish_prefill"), (Role.DECODE, "_finish_beat")):
        monkeypatch.setattr(serving._Sim, name, spy_finish(phase, getattr(serving._Sim, name)))
    new = simulate(*args)
    assert entered and left == entered
    monkeypatch.undo()
    _, old, events = _run_both(*args)
    assert events.overtakes == 3
    moved = {r.rid for r, o in zip(new.requests, old.requests) if r != o}
    assert moved == set(range(4, 11))
    assert all(new.requests[rid].e2e_s != old.requests[rid].e2e_s for rid in moved)


@pytest.mark.parametrize("pp", [1, 2, 4])
def test_each_batch_takes_two_events_at_any_depth(monkeypatch, pp):
    """Events are the arrivals, two per KV page sent (its bridge send and its
    arrival) and two per batch (stage 0 going free, the batch leaving),
    whatever the pipeline depth; the per-stage engine takes more per stage."""
    counts = defaultdict(int)

    def counted(name):
        fn = getattr(serving._Sim, name)

        def spy(self, *args):
            counts[name] += 1
            fn(self, *args)
        monkeypatch.setattr(serving._Sim, name, spy)

    counted("_traverse")
    counted("_bridge_send")
    system, model, _, tr, cfg, temps = _oracle_inputs("continuous")
    plan = _plan(system, model, tp_prefill=2, pp_prefill=min(pp, 2), tp_decode=1,
                 pp_decode=pp)
    m = simulate(system, model, plan, tr, cfg, temps)
    assert counts["_traverse"] > 2 and counts["_bridge_send"] > 0
    assert m.events == len(tr) + 2 * counts["_bridge_send"] + 2 * counts["_traverse"]
    monkeypatch.undo()
    _, old, _ = _run_both(system, model, plan, tr, cfg, temps)
    assert (old.events > m.events) is (pp > 1)


def _direct_stage_cost(sim, ctx, s: int, key) -> tuple[serving._StageCost, list]:
    """A stage's cost as the engine built it before its operator memos: each
    op of ops.layer_ops costed on its own, in op order. Also returns the
    records of its GEMM and VPU ops."""
    chiplet, tp = ctx.chiplet, ctx.plan.tp
    t_layer = qkv_off = comp_j = dram_j = comm_j = 0.0
    records = []
    for op in ops.layer_ops(sim.model, tp, ctx.phase, list(key)):
        if op.kind is ops.OpKind.GEMM:
            res = dataflow.cached_search(op.shape, chiplet.pe, chiplet.dram,
                                         ctx.stage_temp[s], clock_hz=chiplet.clock_hz,
                                         dtype_bytes=sim.model.dtype_bytes)
            dt = res.cost.latency_s
            comp_j += res.cost.compute.energy_j
            dram_j += res.cost.energy_j - res.cost.compute.energy_j
            records.append(serving.OpRecord(ctx.phase, ops.OpKind.GEMM, op.tag,
                                            op.shape.flops, res.cost.dram_bytes, dt))
        elif op.kind is ops.OpKind.VPU:
            dt = vpu_cycles(op.elements, chiplet.pe) / chiplet.clock_hz
            comp_j += op.elements * chiplet.pe.pj_per_flop * 1e-12
            records.append(serving.OpRecord(ctx.phase, ops.OpKind.VPU, op.tag,
                                            op.elements, 0, dt))
        elif tp > 1:
            cc = allreduce_cost(ctx.members[s], ctx.centers[s], op.msg_bytes, sim.spec)
            dt = cc.latency_s
            comm_j += cc.energy_j
        else:
            dt = 0.0
        t_layer += dt
        if op.tag == "qkv":
            qkv_off = t_layer
    lo, hi = ctx.bounds[s]
    n = hi - lo
    return serving._StageCost(
        duration_s=t_layer * n, layer_s=t_layer, qkv_offset_s=qkv_off,
        shard_compute_j=comp_j * n, shard_dram_j=dram_j * n,
        shard_j=comp_j * n + dram_j * n, comm_j=comm_j * n), records


@pytest.mark.parametrize("case", ["static", "pp_prefill2", "decode_pp4"])
def test_stage_costs_equal_direct_per_op_costing(case):
    sim = serving._Sim(*_oracle_inputs(case))
    sim.run()
    m = sim.metrics(sim.spec)
    checked = 0
    records = set()
    for ctx in (sim.pre, sim.dec):
        for key, costs in ctx.costs.items():
            for s, cost in enumerate(costs):
                if cost is not None:
                    direct, recs = _direct_stage_cost(sim, ctx, s, key)
                    assert cost == direct, (ctx.phase, s, key)
                    records.update(recs)
                    checked += 1
    assert checked > 2 * sim.dec.pp
    assert records == set(m.op_records)
    assert len(set(m.op_records)) == len(m.op_records)


def test_simulation_deterministic(tiny_model, system):
    plan = _plan(system, tiny_model, tp_prefill=2, tp_decode=2)
    tr = synth_trace("custom", 8, 100.0, seed=6, mean_input=24, mean_output=6)
    a = simulate(system, tiny_model, plan, tr, SimConfig(len_bucket=8))
    b = simulate(system, tiny_model, plan, tr, SimConfig(len_bucket=8))
    assert a == b


def test_hotter_chips_slow_serving(tiny_model, system):
    plan = _plan(system, tiny_model, tp_prefill=2, tp_decode=2)
    tr = synth_trace("custom", 6, 100.0, seed=12, mean_input=48, mean_output=6)
    cool = simulate(system, tiny_model, plan, tr, SimConfig(len_bucket=8), temps=65.0)
    hot = simulate(system, tiny_model, plan, tr, SimConfig(len_bucket=8), temps=103.0)
    assert hot.makespan_s > cool.makespan_s
    per_chip = {c: 103.0 for c in system.placement}
    hot2 = simulate(system, tiny_model, plan, tr, SimConfig(len_bucket=8),
                    temps=per_chip)
    assert hot2.makespan_s == pytest.approx(hot.makespan_s, rel=1e-12)
