"""Systolic-array cost oracle values and utilization properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pe
from lamosim.compute import (
    CostLut,
    GemmShape,
    InfeasibleTiling,
    TileMapping,
    gemm_cycles,
    vpu_cycles,
)


def test_full_tile_fill_drain():
    # 32+32+32-1 = 95 cycles, single pass, full occupancy
    pe = make_pe()
    cost = gemm_cycles(GemmShape(32, 32, 32), TileMapping(32, 32, 32), pe)
    assert cost.cycles == 95
    assert cost.utilization == pytest.approx(1.0)


def test_short_rows_bill_760_effective():
    # M=4 on 32 rows: raw 95 at occupancy 4/32 -> 760 cycle-equivalents
    pe = make_pe()
    cost = gemm_cycles(GemmShape(4, 32, 32), TileMapping(4, 32, 32), pe)
    assert cost.utilization == pytest.approx(0.125)
    assert cost.cycles == 760


def test_degenerate_1x1():
    pe = make_pe(sa_rows=1, sa_cols=1, base_sa_rows=1)
    cost = gemm_cycles(GemmShape(1, 1, 1), TileMapping(1, 1, 1), pe)
    assert cost.cycles == 2
    assert cost.utilization == pytest.approx(1.0)


def test_base_sa_speeds_up_gemv():
    # m=1 decode row: splitting the array lets k-tiles run on idle row-blocks
    shape = GemmShape(1, 32, 4096)
    tiling = TileMapping(1, 32, 128)
    mono = gemm_cycles(shape, tiling, make_pe())
    split = gemm_cycles(shape, tiling, make_pe(base_sa_rows=1))
    assert split.utilization > mono.utilization
    assert split.cycles < mono.cycles


def test_folding_large_tiles():
    # t_m=64 folds twice over 32 rows: 2 passes, full row occupancy
    pe = make_pe()
    cost = gemm_cycles(GemmShape(64, 32, 32), TileMapping(64, 32, 32), pe)
    assert cost.utilization == pytest.approx(1.0)
    assert cost.cycles == 2 * 95


def test_cores_split_passes():
    pe1 = make_pe(n_core=1)
    pe4 = make_pe(n_core=4)
    shape = GemmShape(128, 128, 32)
    tiling = TileMapping(32, 32, 32)
    c1 = gemm_cycles(shape, tiling, pe1)
    c4 = gemm_cycles(shape, tiling, pe4)
    assert c4.cycles == pytest.approx(c1.cycles / 4, rel=0.01)
    assert c4.energy_j == pytest.approx(c1.energy_j)  # energy is work, not time


def test_tile_exceeding_problem_rejected():
    pe = make_pe()
    with pytest.raises(InfeasibleTiling):
        gemm_cycles(GemmShape(4, 32, 32), TileMapping(8, 32, 32), pe)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 256), n=st.integers(1, 256), k=st.integers(1, 256),
    log_base=st.integers(0, 5),
)
def test_work_lower_bound_and_base_sa_monotone(m, n, k, log_base):
    pe = make_pe(base_sa_rows=32 >> log_base if (32 >> log_base) >= 1 else 1)
    shape = GemmShape(m, n, k)
    tiling = TileMapping(min(m, 32), min(n, 32), min(k, 32))
    cost = gemm_cycles(shape, tiling, pe)
    assert 0 < cost.utilization <= 1.0
    # effective cycles x utilization = raw passes >= MAC-limited lower bound
    ideal = shape.flops / (2 * pe.sa_rows * pe.sa_cols)
    assert cost.cycles * cost.utilization >= ideal - 1
    # splitting into more base SAs never hurts utilization
    finer = make_pe(base_sa_rows=max(1, pe.base_sa_rows // 2))
    finer_cost = gemm_cycles(shape, tiling, finer)
    assert finer_cost.utilization >= cost.utilization - 1e-12


def test_vpu_cost():
    pe = make_pe(vector_regs=32)
    assert vpu_cycles(0, pe) == 0
    assert vpu_cycles(1, pe) == 1
    assert vpu_cycles(64, pe) == 2
    assert vpu_cycles(65, pe) == 3


def test_lut_idempotent():
    lut = CostLut()
    calls = []

    def compute():
        calls.append(1)
        return {"v": len(calls)}

    first = lut.get_or_compute(("k", 1), compute)
    second = lut.get_or_compute(("k", 1), compute)
    assert first is second and len(calls) == 1
    assert lut.hits == 1 and lut.misses == 1
    assert math.isclose(first["v"], 1)
