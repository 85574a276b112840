"""Thermal network oracles: closed-form columns, an independent 4-node nodal
solve, feedback slopes checked against their defining constants, and the
flow-level escalation ladder."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_chiplet, make_cooling, make_dram, make_system
from lamosim import serving, thermal
from lamosim.hwspec import FlowLevel, PowerConsts, Role
from lamosim.mapping import build_pd_plan
from lamosim.thermal import (
    ChipPower,
    NonConvergence,
    SingularNetwork,
    activity_power,
    equilibrium,
    solve_steady,
)


def one_chip_system(n_layer=1, r_bond=0.1, r_cold=0.4, r_per=0.015,
                    ambient=45.0, flow_levels=None, **chip_over):
    dram = make_dram(n_layer=n_layer, capacity_bytes=n_layer * 8 * (16 << 20))
    cooling = make_cooling(
        ambient_c=ambient, r_bond=r_bond, r_coldplate=r_cold,
        r_per_dram_layer=r_per,
        flow_levels=flow_levels or (FlowLevel(1.0, 10.0),))
    return make_system(
        chiplet_types={"pc": make_chiplet(Role.PREFILL, dram=dram, **chip_over)},
        placement={(0, 0): "pc"},
        cooling=cooling,
    )


def test_single_column_closed_form():
    # 100 W through 0.1 + 0.4 K/W lands 50 C above a 45 C ambient.
    spec = one_chip_system()
    logic, dram = solve_steady(spec, {(0, 0): ChipPower(100.0, (0.0,))},
                               spec.cooling.flow_levels[0])
    assert logic[(0, 0)] == pytest.approx(95.0, abs=1e-9)
    assert dram[(0, 0)][0] == pytest.approx(85.0, abs=1e-9)


def test_column_with_dram_heat():
    # Coldplate carries logic + dram heat; the bond link only logic heat.
    spec = one_chip_system()
    logic, dram = solve_steady(spec, {(0, 0): ChipPower(10.0, (5.0,))},
                               spec.cooling.flow_levels[0])
    assert dram[(0, 0)][0] == pytest.approx(45.0 + 15.0 * 0.4, abs=1e-9)
    assert logic[(0, 0)] == pytest.approx(45.0 + 15.0 * 0.4 + 10.0 * 0.1, abs=1e-9)


def test_taller_stack_runs_hotter():
    flat = one_chip_system(n_layer=1)
    tall = one_chip_system(n_layer=4)
    p1 = {(0, 0): ChipPower(50.0, (0.0,))}
    p4 = {(0, 0): ChipPower(50.0, (0.0,) * 4)}
    t1, _ = solve_steady(flat, p1, flat.cooling.flow_levels[0])
    t4, _ = solve_steady(tall, p4, tall.cooling.flow_levels[0])
    assert t4[(0, 0)] > t1[(0, 0)]
    # exact margin: three extra inter-die links
    assert t4[(0, 0)] - t1[(0, 0)] == pytest.approx(50.0 * 3 * 0.015, abs=1e-9)


def test_lateral_spreading_matches_nodal_solve():
    # Two adjacent one-layer columns, all heat in chip A's logic die. The
    # oracle builds the 4-node conductance matrix by hand.
    spec = make_system(
        chiplet_types={"pc": make_chiplet(
            Role.PREFILL,
            dram=make_dram(n_layer=1, capacity_bytes=8 * (16 << 20)))},
        placement={(0, 0): "pc", (1, 0): "pc"},
        cooling=make_cooling(flow_levels=(FlowLevel(1.0, 10.0),)),
    )
    cool = spec.cooling
    gb, gc = 1.0 / cool.r_bond, 1.0 / cool.r_coldplate
    gl = 1.0 / cool.r_lateral
    # order: A.logic, A.d0, B.logic, B.d0
    g = np.array([
        [gb + gl, -gb, -gl, 0.0],
        [-gb, gb + gc, 0.0, 0.0],
        [-gl, 0.0, gb + gl, -gb],
        [0.0, 0.0, -gb, gb + gc],
    ])
    p = np.array([80.0, 0.0, 0.0, 0.0])
    amb = np.array([0.0, gc * cool.ambient_c, 0.0, gc * cool.ambient_c])
    want = np.linalg.solve(g, p + amb)
    logic, dram = solve_steady(spec, {(0, 0): ChipPower(80.0, (0.0,)),
                                      (1, 0): ChipPower(0.0, (0.0,))},
                               cool.flow_levels[0])
    assert logic[(0, 0)] == pytest.approx(want[0], abs=1e-9)
    assert dram[(0, 0)][0] == pytest.approx(want[1], abs=1e-9)
    assert logic[(1, 0)] == pytest.approx(want[2], abs=1e-9)
    assert dram[(1, 0)][0] == pytest.approx(want[3], abs=1e-9)
    assert logic[(1, 0)] > cool.ambient_c  # some heat really crossed over


def test_zero_power_sits_at_ambient():
    spec = one_chip_system()
    logic, dram = solve_steady(spec, {(0, 0): ChipPower(0.0, (0.0,))},
                               spec.cooling.flow_levels[0])
    assert logic[(0, 0)] == pytest.approx(45.0)
    assert dram[(0, 0)][0] == pytest.approx(45.0)


def test_leakage_slope_is_half_percent_per_degree():
    spec = one_chip_system(
        power=PowerConsts(leak_base_w_per_pe=2.0, dram_static_w_per_layer=0.0,
                          refresh_w_per_layer=0.0))
    dyn = {(0, 0): ChipPower(0.0, (0.0,))}
    p65 = thermal._temperature_power(spec, dyn, {(0, 0): 65.0}, {(0, 0): (65.0,)})
    p105 = thermal._temperature_power(spec, dyn, {(0, 0): 105.0}, {(0, 0): (65.0,)})
    assert p105[(0, 0)].logic_w / p65[(0, 0)].logic_w == pytest.approx(1.2)


def test_refresh_power_doubles_per_bin():
    spec = one_chip_system(
        power=PowerConsts(leak_base_w_per_pe=0.0, dram_static_w_per_layer=0.0,
                          refresh_w_per_layer=0.5))
    dyn = {(0, 0): ChipPower(0.0, (0.0,))}
    logic_t = {(0, 0): 65.0}
    cold = thermal._temperature_power(spec, dyn, logic_t, {(0, 0): (80.0,)})
    warm = thermal._temperature_power(spec, dyn, logic_t, {(0, 0): (86.0,)})
    hot = thermal._temperature_power(spec, dyn, logic_t, {(0, 0): (105.0,)})
    assert cold[(0, 0)].dram_w[0] == pytest.approx(0.5)
    assert warm[(0, 0)].dram_w[0] == pytest.approx(1.0)
    assert hot[(0, 0)].dram_w[0] == pytest.approx(2.0)


def test_equilibrium_converges_and_is_consistent():
    spec = one_chip_system(n_layer=2)
    dyn = {(0, 0): ChipPower(60.0, (3.0, 3.0))}
    res = equilibrium(spec, dyn)
    assert res.iterations <= 20
    assert not res.over_limit
    # consistency: solving once more at the reported temps moves < tol
    p = thermal._temperature_power(spec, dyn, res.logic_c, res.dram_c)
    logic2, dram2 = solve_steady(spec, p, spec.cooling.flow_levels[res.flow_level])
    assert abs(logic2[(0, 0)] - res.logic_c[(0, 0)]) <= 0.5
    assert all(abs(a - b) <= 0.5
               for a, b in zip(dram2[(0, 0)], res.dram_c[(0, 0)]))
    assert res.dram_hot_c[(0, 0)] == max(res.dram_c[(0, 0)])


def test_flow_escalation_picks_first_adequate_level():
    levels = (FlowLevel(1.0, 10.0), FlowLevel(0.5, 25.0), FlowLevel(0.25, 60.0))
    spec = one_chip_system(flow_levels=levels)
    mild = equilibrium(spec, {(0, 0): ChipPower(20.0, (0.0,))})
    assert mild.flow_level == 0 and mild.pump_w == 10.0
    # ~120 C at full r_cold but ~82 C at half: needs exactly one step up
    pushed = equilibrium(spec, {(0, 0): ChipPower(150.0, (0.0,))})
    assert pushed.flow_level == 1 and pushed.pump_w == 25.0
    assert not pushed.over_limit
    melt = equilibrium(spec, {(0, 0): ChipPower(900.0, (0.0,))})
    assert melt.flow_level == 2 and melt.over_limit


def test_nonconvergence_reported(monkeypatch):
    spec = one_chip_system()
    monkeypatch.setattr(thermal, "MAX_ITERS", 1)
    with pytest.raises(NonConvergence):
        thermal._fixed_point(spec, {(0, 0): ChipPower(200.0, (0.0,))},
                             spec.cooling.flow_levels[0])


def test_detached_column_is_singular():
    spec = one_chip_system()
    object.__setattr__(spec.cooling, "r_coldplate", math.inf)
    with pytest.raises(SingularNetwork):
        solve_steady(spec, {(0, 0): ChipPower(10.0, (0.0,))},
                     spec.cooling.flow_levels[0])


def test_activity_power_aggregates_per_chip(system):
    p = activity_power(system, {(0, 0): 8.0}, {(0, 0): 4.0, (2, 0): 8.0},
                       window_s=2.0)
    assert p[(0, 0)].logic_w == 4.0
    assert p[(0, 0)].dram_w == (1.0, 1.0)  # spread over the 2-layer stack
    assert p[(2, 0)].logic_w == 0.0
    assert p[(2, 0)].dram_w == (1.0,) * 4
    assert p[(1, 0)] == ChipPower(0.0, (0.0, 0.0))
    zero = activity_power(system, {(0, 0): 8.0}, {}, 0.0)
    assert all(v.logic_w == 0.0 and not any(v.dram_w) for v in zero.values())
    with pytest.raises(ValueError):
        activity_power(system, {}, {}, -1.0)


def test_decode_stack_hotter_than_prefill(tiny_model, system):
    # Same dynamic power per chip; the decode chiplets carry 4 DRAM layers
    # against prefill's 2 and also more static heat.
    dyn = {c: ChipPower(30.0, (1.0,) * system.chiplet_at(c).dram.n_layer)
           for c in system.placement}
    res = equilibrium(system, dyn)
    pc_t = max(res.logic_c[c] for c in system.coords_for_role(Role.PREFILL))
    dc_t = max(res.logic_c[c] for c in system.coords_for_role(Role.DECODE))
    assert dc_t > pc_t


def _coupling_case(system, model):
    plan = build_pd_plan(system, model, tp_prefill=2, pp_prefill=1,
                         tp_decode=2, pp_decode=1,
                         kv_budget_decode_bytes=1 << 20, ref_tokens=8)
    trace = serving.synth_trace("custom", 6, 100.0, seed=1,
                                mean_input=16, mean_output=4)
    return plan, trace, serving.SimConfig(len_bucket=4)


def test_coupled_serve_smoke(tiny_model, system):
    plan, trace, cfg = _coupling_case(system, tiny_model)
    m, th = thermal.coupled_serve(system, tiny_model, plan, trace, cfg)
    assert m.total_tokens == sum(r.output_len for r in trace)
    assert th.t_max_c > system.cooling.ambient_c
    m2, th2 = thermal.coupled_serve(system, tiny_model, plan, trace, cfg)
    assert m2 == m and th2 == th
    # round 1 starts at 65 C; round 2 confirms the bins of round 1's result
    assert th.rounds == 2


def test_coupled_serve_metrics_simulated_at_returned_temperatures(tiny_model):
    # A 90 C coolant puts every stack one refresh bin above the 65 C start.
    system = make_system(cooling=make_cooling(ambient_c=90.0))
    plan, trace, cfg = _coupling_case(system, tiny_model)
    m, th = thermal.coupled_serve(system, tiny_model, plan, trace, cfg)
    assert min(th.dram_hot_c.values()) > 85.0
    assert m == serving.simulate(system, tiny_model, plan, trace, cfg,
                                 temps=th.dram_hot_c)
    assert m != serving.simulate(system, tiny_model, plan, trace, cfg, temps=65.0)


def test_coupled_serve_raises_when_refresh_bins_keep_moving(tiny_model, system,
                                                            monkeypatch):
    plan, trace, cfg = _coupling_case(system, tiny_model)
    solve = thermal.equilibrium
    rounds = []

    def flipping(spec, dyn):
        # every round lands two refresh bins away from the previous one
        hot = 100.0 if len(rounds) % 2 else 60.0
        rounds.append(hot)
        res = solve(spec, dyn)
        return replace(res, dram_c={c: (hot,) * len(v) for c, v in res.dram_c.items()})

    monkeypatch.setattr(thermal, "equilibrium", flipping)
    with pytest.raises(NonConvergence):
        thermal.coupled_serve(system, tiny_model, plan, trace, cfg)
    assert len(rounds) == thermal.MAX_COUPLING_ROUNDS
