"""Lumped thermal resistance network over the chiplet grid, with power feedback.

Each chiplet is one vertical column: a logic node, one node per DRAM layer
stacked above it, and the top layer tied to the coldplate (ambient) through
the active flow level's scaled resistance. The bond layer sits between logic
and the first DRAM die; consecutive DRAM dies see r_per_dram_layer; logic
dies of mesh-adjacent chiplets couple through r_lateral. Heat generated in
the logic die therefore crosses the whole DRAM stack on its way out, which is
what makes tall decode stacks run hot.

Power depends on temperature, so the steady state is a relaxed fixed point:
logic leakage grows 0.5%/C above 65 C, and refresh power scales with the
refresh duty factor (doubling per retention bin). Flow control picks the
lowest pump level whose converged maximum stays under t_limit_c.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import serving
from .dram import refresh_derate
from .hwspec import FlowLevel, SystemSpec

LEAK_SLOPE_PER_C = 0.005
LEAK_REF_C = 65.0
MAX_COUPLING_ROUNDS = 8
# power/temperature fixed point: relaxation step, settling tolerance, cap
RELAX = 0.5
TOL_C = 0.5
MAX_ITERS = 20

Chip = tuple[int, int]


class SingularNetwork(Exception):
    """The conductance matrix has no unique solution (a node is adrift)."""


class NonConvergence(Exception):
    """A fixed point failed to settle: the power/temperature solve within
    MAX_ITERS, or the serving/thermal coupling within MAX_COUPLING_ROUNDS."""


@dataclass(frozen=True)
class ChipPower:
    """Heat injected into one chiplet column (logic die, per DRAM layer)."""

    logic_w: float
    dram_w: tuple[float, ...]


@dataclass(frozen=True)
class ThermalResult:
    logic_c: dict[Chip, float]
    dram_c: dict[Chip, tuple[float, ...]]
    t_max_c: float
    flow_level: int
    pump_w: float
    iterations: int
    over_limit: bool
    rounds: int = 0  # serving/thermal coupling rounds behind it; 0 from equilibrium alone

    @property
    def dram_hot_c(self) -> dict[Chip, float]:
        """Hottest DRAM layer per chiplet; this is what derates memory."""
        return {c: max(layers) for c, layers in self.dram_c.items()}


def activity_power(spec: SystemSpec, logic_j: Mapping[Chip, float],
                   dram_j: Mapping[Chip, float],
                   window_s: float) -> dict[Chip, ChipPower]:
    """Average dynamic power per chiplet from its energy over the window, DRAM
    heat spread evenly across the stack's layers. Static and leakage terms are
    added later, inside the fixed point, because they depend on temperature."""
    if window_s < 0:
        raise ValueError("window_s must be >= 0")
    out = {}
    for chip in spec.placement:
        n_layer = spec.chiplet_at(chip).dram.n_layer
        if window_s == 0:
            out[chip] = ChipPower(0.0, (0.0,) * n_layer)
            continue
        lw = logic_j.get(chip, 0.0) / window_s
        dw = dram_j.get(chip, 0.0) / window_s / n_layer
        out[chip] = ChipPower(lw, (dw,) * n_layer)
    return out


def _temperature_power(spec: SystemSpec, dyn: Mapping[Chip, ChipPower],
                       logic_t: Mapping[Chip, float],
                       dram_t: Mapping[Chip, tuple[float, ...]]) -> dict[Chip, ChipPower]:
    """Dynamic power plus leakage, DRAM static, and derate-scaled refresh."""
    out = {}
    for chip in spec.placement:
        c = spec.chiplet_at(chip)
        base = dyn[chip]
        leak = c.n_pe * c.power.leak_base_w_per_pe \
            * (1.0 + LEAK_SLOPE_PER_C * (logic_t[chip] - LEAK_REF_C))
        d0 = refresh_derate(c.dram, c.dram.retention_base_temp_c)
        layers = []
        for li, dw in enumerate(base.dram_w):
            refresh = c.power.refresh_w_per_layer
            if refresh > 0.0 and d0 > 0.0:
                # duty caps at 1.0: the array cannot refresh more than always
                refresh *= min(refresh_derate(c.dram, dram_t[chip][li]), 1.0) / d0
            layers.append(dw + c.power.dram_static_w_per_layer + refresh)
        out[chip] = ChipPower(base.logic_w + leak, tuple(layers))
    return out


def _node_index(spec: SystemSpec) -> tuple[list[tuple[Chip, int]], dict[tuple[Chip, int], int]]:
    """Node list: (chip, -1) is the logic die, (chip, l) is DRAM layer l."""
    nodes: list[tuple[Chip, int]] = []
    for chip in sorted(spec.placement):
        nodes.append((chip, -1))
        for layer in range(spec.chiplet_at(chip).dram.n_layer):
            nodes.append((chip, layer))
    return nodes, {n: i for i, n in enumerate(nodes)}


def _conductance(spec: SystemSpec, flow: FlowLevel) -> tuple[np.ndarray, np.ndarray,
                                                             list[tuple[Chip, int]]]:
    """(G, ambient injection vector, node list) for G @ T = P + amb."""
    cool = spec.cooling
    nodes, idx = _node_index(spec)
    n = len(nodes)
    g = np.zeros((n, n))
    amb = np.zeros(n)

    def connect(i: int, j: int, cond: float) -> None:
        g[i, i] += cond
        g[j, j] += cond
        g[i, j] -= cond
        g[j, i] -= cond

    for chip in spec.placement:
        n_layer = spec.chiplet_at(chip).dram.n_layer
        connect(idx[(chip, -1)], idx[(chip, 0)], 1.0 / cool.r_bond)
        for layer in range(n_layer - 1):
            connect(idx[(chip, layer)], idx[(chip, layer + 1)],
                    1.0 / cool.r_per_dram_layer)
        top = idx[(chip, n_layer - 1)]
        g_cold = 1.0 / (cool.r_coldplate * flow.r_scale)
        g[top, top] += g_cold
        amb[top] += g_cold * cool.ambient_c
    chips = set(spec.placement)
    for (x, y) in chips:
        for nb in ((x + 1, y), (x, y + 1)):
            if nb in chips:
                connect(idx[((x, y), -1)], idx[(nb, -1)], 1.0 / cool.r_lateral)
    return g, amb, nodes


def solve_steady(spec: SystemSpec, powers: Mapping[Chip, ChipPower],
                 flow: FlowLevel) -> tuple[dict[Chip, float], dict[Chip, tuple[float, ...]]]:
    """One linear nodal solve at fixed power. Returns (logic, dram) temps."""
    g, amb, nodes = _conductance(spec, flow)
    p = np.zeros(len(nodes))
    for i, (chip, layer) in enumerate(nodes):
        cp = powers[chip]
        if layer < 0:
            p[i] = cp.logic_w
        else:
            if len(cp.dram_w) != spec.chiplet_at(chip).dram.n_layer:
                raise ValueError(f"power for {chip} has {len(cp.dram_w)} dram "
                                 "entries, stack disagrees")
            p[i] = cp.dram_w[layer]
    try:
        t = np.linalg.solve(g, p + amb)
    except np.linalg.LinAlgError as e:
        raise SingularNetwork(str(e)) from None
    logic: dict[Chip, float] = {}
    dram: dict[Chip, list[float]] = defaultdict(list)
    for i, (chip, layer) in enumerate(nodes):
        if layer < 0:
            logic[chip] = float(t[i])
        else:
            dram[chip].append(float(t[i]))
    return logic, {c: tuple(v) for c, v in dram.items()}


def _fixed_point(spec: SystemSpec, dyn: Mapping[Chip, ChipPower],
                 flow: FlowLevel) -> tuple[dict[Chip, float], dict[Chip, tuple[float, ...]], int]:
    amb = spec.cooling.ambient_c
    logic = {chip: amb for chip in spec.placement}
    dram = {chip: (amb,) * spec.chiplet_at(chip).dram.n_layer
            for chip in spec.placement}
    for it in range(1, MAX_ITERS + 1):
        p = _temperature_power(spec, dyn, logic, dram)
        new_logic, new_dram = solve_steady(spec, p, flow)
        delta = max(
            max(abs(new_logic[c] - logic[c]) for c in logic),
            max(abs(a - b) for c in dram for a, b in zip(new_dram[c], dram[c])),
        )
        if delta <= TOL_C:
            return new_logic, new_dram, it
        logic = {c: logic[c] + RELAX * (new_logic[c] - logic[c]) for c in logic}
        dram = {c: tuple(b + RELAX * (a - b) for a, b in zip(new_dram[c], dram[c]))
                for c in dram}
    raise NonConvergence(
        f"thermal fixed point moved {delta:.2f} C on iteration {MAX_ITERS}")


def equilibrium(spec: SystemSpec, dyn: Mapping[Chip, ChipPower]) -> ThermalResult:
    """Converged temperatures at the lowest flow level that respects the
    temperature limit; the highest level is returned flagged over_limit when
    even it cannot."""
    last: ThermalResult | None = None
    for li, flow in enumerate(spec.cooling.flow_levels):
        logic, dram, iters = _fixed_point(spec, dyn, flow)
        t_max = max(max(logic.values()),
                    max(max(v) for v in dram.values()))
        last = ThermalResult(
            logic_c=logic, dram_c=dram, t_max_c=t_max, flow_level=li,
            pump_w=flow.pump_w, iterations=iters,
            over_limit=t_max > spec.cooling.t_limit_c)
        if not last.over_limit:
            return last
    return last


def coupled_serve(spec: SystemSpec, model, plan, trace,
                  cfg: serving.SimConfig = serving.SimConfig(), *,
                  start_temp_c: float = 65.0) -> tuple[serving.ServingMetrics, ThermalResult]:
    """Alternate serving and thermal solves so memory timing sees the
    temperatures its own traffic produces. Temperature reaches serving only
    through each chiplet's refresh derate, so from round two on the loop stops
    once every derate at the temperatures the last simulation used equals the
    derate at the returned dram_hot_c: the metrics are then those of a
    simulation at the returned temperatures, and the returned result carries
    the number of rounds run. NonConvergence past MAX_COUPLING_ROUNDS."""
    temps: float | dict[Chip, float] = start_temp_c
    for rnd in range(1, MAX_COUPLING_ROUNDS + 1):
        metrics = serving.simulate(spec, model, plan, trace, cfg, temps=temps)
        dyn = activity_power(spec, metrics.chip_compute_j, metrics.chip_dram_j,
                             metrics.makespan_s)
        result = equilibrium(spec, dyn)
        used, temps = temps, result.dram_hot_c
        if rnd >= 2 and all(
                refresh_derate(spec.chiplet_at(c).dram, used[c])
                == refresh_derate(spec.chiplet_at(c).dram, temps[c])
                for c in spec.placement):
            return metrics, replace(result, rounds=rnd)
    raise NonConvergence(
        f"serving/thermal coupling moved a refresh bin in round {MAX_COUPLING_ROUNDS}")
