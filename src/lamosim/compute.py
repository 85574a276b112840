"""Output-stationary systolic array and VPU cost model.

A GEMM (m, n, k) is executed as tile passes over the array. One pass fills,
streams t_k deep, and drains:

    pass_cycles = sa_rows + sa_cols + t_k - 1

Tiles larger than the array fold over it (ceil(t_m/sa_rows) x
ceil(t_n/sa_cols) passes per tile). Underuse of rows/columns is charged as
time: the returned `cycles` is the raw pass total scaled by 1/utilization,
which is what the scheduler bills.

The array can be split into row-blocks (base SAs). A tile whose rows fit in
a few base SAs leaves the rest idle; independent passes (other tiles of the
same GEMM) may run on those concurrently, which raises utilization. Splitting
never lowers utilization: a tall tile simply spans adjacent base SAs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

from .hwspec import PeSpec


class InfeasibleTiling(ValueError):
    """Tile exceeds the GEMM dims. Folding over the array is legal; overshooting
    the problem is not (searches never emit such tiles)."""


@dataclass(frozen=True)
class GemmShape:
    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) < 1:
            raise ValueError("GEMM dims must be >= 1")

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k


@dataclass(frozen=True)
class TileMapping:
    t_m: int
    t_n: int
    t_k: int

    def __post_init__(self) -> None:
        if min(self.t_m, self.t_n, self.t_k) < 1:
            raise ValueError("tile dims must be >= 1")


@dataclass(frozen=True)
class ComputeCost:
    cycles: int  # effective scheduling cost (raw passes / utilization)
    utilization: float
    energy_j: float


def _pass_counts(shape: GemmShape, t: TileMapping, pe: PeSpec) -> tuple[int, int, int]:
    """(total passes, folds_m, folds_n) for the tiling; validates feasibility."""
    if t.t_m > shape.m or t.t_n > shape.n or t.t_k > shape.k:
        raise InfeasibleTiling(
            f"tile ({t.t_m},{t.t_n},{t.t_k}) exceeds GEMM ({shape.m},{shape.n},{shape.k})")
    folds_m = math.ceil(t.t_m / pe.sa_rows)
    folds_n = math.ceil(t.t_n / pe.sa_cols)
    tiles = (
        math.ceil(shape.m / t.t_m)
        * math.ceil(shape.n / t.t_n)
        * math.ceil(shape.k / t.t_k)
    )
    return tiles * folds_m * folds_n, folds_m, folds_n


def _tile_utilization(shape: GemmShape, t: TileMapping, pe: PeSpec) -> float:
    passes, folds_m, folds_n = _pass_counts(shape, t, pe)
    if t.t_m >= pe.sa_rows:
        row_util = t.t_m / (folds_m * pe.sa_rows)
    else:
        bases_per_tile = math.ceil(t.t_m / pe.base_sa_rows)
        concurrent = max(1, min(pe.n_base_sa // bases_per_tile, passes))
        row_util = (concurrent * t.t_m) / pe.sa_rows
    col_util = t.t_n / (folds_n * pe.sa_cols)
    return min(1.0, row_util) * col_util


def gemm_cycles(shape: GemmShape, tiling: TileMapping, pe: PeSpec) -> ComputeCost:
    """Effective cycle cost and energy of a tiled GEMM on one PE.

    The PE's cores are independent arrays; passes spread evenly across them.
    Energy covers MACs only (2*m*n*k FLOPs at pj_per_flop); operand movement
    is billed by the memory model.
    """
    passes, _, _ = _pass_counts(shape, tiling, pe)
    util = _tile_utilization(shape, tiling, pe)
    serial = math.ceil(passes / pe.n_core)
    raw = serial * (pe.sa_rows + pe.sa_cols + tiling.t_k - 1)
    cycles = math.ceil(raw / util)
    energy = shape.flops * pe.pj_per_flop * 1e-12
    return ComputeCost(cycles=cycles, utilization=util, energy_j=energy)


def vpu_cycles(elements: int, pe: PeSpec) -> int:
    """Elementwise vector op cost; vector_regs doubles as the lane count."""
    if elements < 0:
        raise ValueError("elements must be >= 0")
    return math.ceil(elements / pe.vector_regs)


class CostLut:
    """Exact-match memo for cost computations, keyed by caller-supplied tuples.

    get_or_compute is idempotent: the first computation is stored and every
    later call with the same key returns the stored value untouched.
    """

    def __init__(self) -> None:
        self._table: dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: Hashable, fn: Callable[[], object]) -> object:
        if key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        value = fn()
        self._table[key] = value
        return value
