"""Decode/prefill dataflow search: joint tiling x reuse-policy optimization.

For a GEMM on one PE, the search enumerates power-of-two tile candidates per
dimension (plus the exact dimension) and, for each tiling, every reuse policy
whose SRAM footprint fits:

    INPUT_REUSE   stage A tiles   t_m * t_k * dtype <= sram
    WEIGHT_REUSE  stage B tiles   t_n * t_k * dtype <= sram
    OUTPUT_REUSE  stage C tiles   t_m * t_n * dtype <= sram
    ALL_REUSE     stage all three (sum of the three footprints) <= sram

Cost model (stationary-operand accounting): the staged operand class is
fetched from DRAM exactly once; streamed operands are re-fetched per tile
pass; an unstaged C pays read+write partial traffic per k-step. Latency
overlaps compute with streamed DRAM traffic and adds the staged load time on
top (double buffering hides it behind neither flow entirely).

`evaluate_mapping` costs one candidate with the scalar models in `compute`
and `dram`. `search` evaluates the whole (t_m, t_n, t_k) x policy grid at
once: numpy arrays carry the same integer and float expressions, in the same
order, so every candidate's latency and energy equal the scalar ones bit for
bit. The search is exhaustive and deterministic: the minimum latency wins,
ties break toward lower energy, then lexicographically smaller
(t_m, t_n, t_k), then policy declaration order. The winner's cost is
rebuilt by `evaluate_mapping`.

`cached_search` memoizes searches process-wide. Its key holds the refresh
derate in place of the temperature: temperature reaches the cost only
through `refresh_derate` inside `mem_access_time`, which is a step function
of 10 C bins, so two temperatures with equal derate give identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .compute import ComputeCost, CostLut, GemmShape, TileMapping, gemm_cycles
from .dram import MemRequest, mem_access_time, refresh_derate
from .hwspec import DramStackSpec, Infeasible, PeSpec


class NoFeasibleMapping(Infeasible):
    """No (tiling, policy) pair fits the PE's SRAM."""


class ReusePolicy(Enum):
    INPUT_REUSE = "input"
    WEIGHT_REUSE = "weight"
    OUTPUT_REUSE = "output"
    ALL_REUSE = "all"


_POLICY_ORDER = {p: i for i, p in enumerate(ReusePolicy)}


@dataclass(frozen=True)
class MappingCost:
    latency_s: float
    energy_j: float
    compute: ComputeCost
    dram_bytes: int


@dataclass(frozen=True)
class DataflowResult:
    policy: ReusePolicy
    tiling: TileMapping
    cost: MappingCost
    search_space_size: int
    evaluated: int


def pow2_candidates(dim: int) -> list[int]:
    """Powers of two up to dim, plus dim itself; ascending."""
    vals = [1 << i for i in range(dim.bit_length()) if (1 << i) <= dim]
    if vals[-1] != dim:
        vals.append(dim)
    return vals


def enumerate_tilings(shape: GemmShape, pe: PeSpec) -> list[TileMapping]:
    """Candidate tilings in lexicographic (t_m, t_n, t_k) order."""
    return [
        TileMapping(tm, tn, tk)
        for tm in pow2_candidates(shape.m)
        for tn in pow2_candidates(shape.n)
        for tk in pow2_candidates(shape.k)
    ]


def staged_tile_bytes(policy: ReusePolicy, t: TileMapping, dtype_bytes: int) -> int:
    a = t.t_m * t.t_k
    b = t.t_n * t.t_k
    c = t.t_m * t.t_n
    if policy is ReusePolicy.INPUT_REUSE:
        elems = a
    elif policy is ReusePolicy.WEIGHT_REUSE:
        elems = b
    elif policy is ReusePolicy.OUTPUT_REUSE:
        elems = c
    else:
        elems = a + b + c
    return elems * dtype_bytes


def _traffic_elems(policy: ReusePolicy, shape: GemmShape, t: TileMapping) -> tuple[int, int]:
    """(staged_elems, streamed_elems) moved between DRAM and the PE."""
    nm = math.ceil(shape.m / t.t_m)
    nn = math.ceil(shape.n / t.t_n)
    nk = math.ceil(shape.k / t.t_k)
    a_once = shape.m * shape.k
    b_once = shape.n * shape.k
    c_once = shape.m * shape.n
    a_stream = a_once * nn
    b_stream = b_once * nm
    c_stream = c_once * (2 * nk - 1)  # partial read+write per k-step, final write
    if policy is ReusePolicy.INPUT_REUSE:
        return a_once, b_stream + c_stream
    if policy is ReusePolicy.WEIGHT_REUSE:
        return b_once, a_stream + c_stream
    if policy is ReusePolicy.OUTPUT_REUSE:
        return c_once, a_stream + b_stream
    return a_once + b_once + c_once, 0


def evaluate_mapping(shape: GemmShape, policy: ReusePolicy, tiling: TileMapping,
                     pe: PeSpec, dram: DramStackSpec, temp_c: float,
                     clock_hz: float, dtype_bytes: int) -> MappingCost:
    """Latency/energy of one (policy, tiling) candidate on one PE.

    The PE streams over its own DRAM channel slice (n_mc channels).
    """
    comp = gemm_cycles(shape, tiling, pe)
    compute_s = comp.cycles / clock_hz
    staged_e, streamed_e = _traffic_elems(policy, shape, tiling)
    staged_bits = staged_e * dtype_bytes * 8
    streamed_bits = streamed_e * dtype_bytes * 8
    stream_s = 0.0
    energy = comp.energy_j
    if streamed_bits:
        mc = mem_access_time(MemRequest(streamed_bits, pe.n_mc), dram, temp_c)
        stream_s = mc.latency_s
        energy += mc.energy_j
    staged_s = 0.0
    if staged_bits:
        mc = mem_access_time(MemRequest(staged_bits, pe.n_mc), dram, temp_c)
        staged_s = mc.latency_s
        energy += mc.energy_j
    latency = max(compute_s, stream_s) + staged_s
    return MappingCost(
        latency_s=latency,
        energy_j=energy,
        compute=comp,
        dram_bytes=(staged_e + streamed_e) * dtype_bytes,
    )


def search(shape: GemmShape, pe: PeSpec, dram: DramStackSpec, temp_c: float, *,
           clock_hz: float, dtype_bytes: int = 2,
           policies: tuple[ReusePolicy, ...] = tuple(ReusePolicy)) -> DataflowResult:
    """Exhaustive search over (tiling, policy) candidates, minimizing latency.

    Restricting `policies` turns the search into a fixed-policy baseline.
    Raises NoFeasibleMapping when nothing fits the SRAM.
    """
    # Imported on the first search, not with the module: loading numpy before
    # the other lamosim modules are compiled raises the CLI's peak RSS by ~1 MB
    # when no bytecode is cached.
    import numpy as np

    def ceil_div(a, b):  # math.ceil(a / b): the same float quotient, then an int
        return np.ceil(a / b).astype(np.int64)

    # Grid axes (t_m, t_n, t_k, policy), in the order enumerate_tilings x
    # policies visits them. Each array expression below repeats the integer and
    # float operations of its scalar counterpart, in the same order.
    tm, tn, tk = np.ix_(*(np.array(pow2_candidates(d), dtype=np.int64)
                          for d in (shape.m, shape.n, shape.k)))
    grid = (tm.size, tn.size, tk.size, len(policies))
    a, b, c = tm * tk, tn * tk, tm * tn  # staged_tile_bytes
    footprint = {ReusePolicy.INPUT_REUSE: a, ReusePolicy.WEIGHT_REUSE: b,
                 ReusePolicy.OUTPUT_REUSE: c, ReusePolicy.ALL_REUSE: a + b + c}
    fits = np.zeros(grid, dtype=bool)
    for i, p in enumerate(policies):
        fits[..., i] = footprint[p] * dtype_bytes <= pe.sram_capacity_bytes
    feasible = np.flatnonzero(fits)
    if feasible.size == 0:
        raise NoFeasibleMapping(
            f"no (tiling, policy) fits {pe.sram_capacity_bytes} B SRAM for "
            f"GEMM ({shape.m},{shape.n},{shape.k}) at dtype {dtype_bytes} B")

    # _traffic_elems. A policy's staged traffic does not depend on the tiling,
    # so the scalar model costs it once; that call also raises what any
    # candidate's evaluation would.
    a_once, b_once, c_once = shape.m * shape.k, shape.n * shape.k, shape.m * shape.n
    staged_elems = {ReusePolicy.INPUT_REUSE: a_once, ReusePolicy.WEIGHT_REUSE: b_once,
                    ReusePolicy.OUTPUT_REUSE: c_once,
                    ReusePolicy.ALL_REUSE: a_once + b_once + c_once}
    staged = [mem_access_time(MemRequest(staged_elems[p] * dtype_bytes * 8, pe.n_mc),
                              dram, temp_c) for p in policies]
    nm, nn, nk = ceil_div(shape.m, tm), ceil_div(shape.n, tn), ceil_div(shape.k, tk)
    a_stream = a_once * nn
    b_stream = b_once * nm
    c_stream = c_once * (2 * nk - 1)
    streamed = {ReusePolicy.INPUT_REUSE: b_stream + c_stream,
                ReusePolicy.WEIGHT_REUSE: a_stream + c_stream,
                ReusePolicy.OUTPUT_REUSE: a_stream + b_stream,
                ReusePolicy.ALL_REUSE: np.zeros((1, 1, 1), dtype=np.int64)}
    bits = np.stack([np.broadcast_to(streamed[p], grid[:3]) for p in policies],
                    axis=-1) * dtype_bytes * 8

    # mem_access_time of the streamed reads; zero where nothing streams
    d = dram
    n_cmd = ceil_div(bits, pe.n_mc * d.n_io_bits * d.burst_len)
    base_ns = (
        d.t_rcd_ns + d.t_cas_ns + d.t_rp_ns
        + d.burst_len * n_cmd / d.io_clock_hz * 1e9
        + d.tsv_delay_ns
    )
    stream_s = np.where(bits > 0, base_ns * 1e-9 / (1.0 - refresh_derate(d, temp_c)), 0.0)
    stream_j = (bits * d.energy_per_bit_pj + n_cmd * d.refresh_energy_per_cmd_pj) * 1e-12

    # gemm_cycles (_pass_counts, _tile_utilization) over the tiling grid
    folds_m = ceil_div(tm, pe.sa_rows)
    folds_n = ceil_div(tn, pe.sa_cols)
    passes = nm * nn * nk * folds_m * folds_n
    bases_per_tile = ceil_div(tm, pe.base_sa_rows)
    concurrent = np.maximum(1, np.minimum(pe.n_base_sa // bases_per_tile, passes))
    row_util = np.where(tm >= pe.sa_rows, tm / (folds_m * pe.sa_rows),
                        (concurrent * tm) / pe.sa_rows)
    col_util = tn / (folds_n * pe.sa_cols)
    util = np.minimum(1.0, row_util) * col_util
    serial = ceil_div(passes, pe.n_core)
    raw = serial * (pe.sa_rows + pe.sa_cols + tk - 1)
    compute_s = ceil_div(raw, util)[..., None] / clock_hz

    latency = np.maximum(compute_s, stream_s) + [mc.latency_s for mc in staged]
    energy = shape.flops * pe.pj_per_flop * 1e-12 + stream_j + [mc.energy_j for mc in staged]

    i_m, i_n, i_k, i_p = np.unravel_index(feasible, grid)
    rank = np.array([_POLICY_ORDER[p] for p in policies], dtype=np.int64)
    order = np.lexsort((rank[i_p], i_k, i_n, i_m,
                        energy.ravel()[feasible], latency.ravel()[feasible]))
    best = order[0]
    policy = policies[i_p[best]]
    tiling = TileMapping(int(tm.flat[i_m[best]]), int(tn.flat[i_n[best]]),
                         int(tk.flat[i_k[best]]))
    cost = evaluate_mapping(shape, policy, tiling, pe, dram, temp_c, clock_hz, dtype_bytes)
    return DataflowResult(policy=policy, tiling=tiling, cost=cost,
                          search_space_size=math.prod(grid), evaluated=int(feasible.size))


_cost_lut = CostLut()


def cached_search(shape: GemmShape, pe: PeSpec, dram: DramStackSpec, temp_c: float, *,
                  clock_hz: float, dtype_bytes: int) -> DataflowResult:
    """`search` with every policy, memoized process-wide per refresh bin."""
    key = (shape, pe, dram, clock_hz, dtype_bytes, refresh_derate(dram, temp_c))
    return _cost_lut.get_or_compute(
        key, lambda: search(shape, pe, dram, temp_c,
                            clock_hz=clock_hz, dtype_bytes=dtype_bytes))
