"""Shared fixtures: small hand-checkable specs used across test modules."""

from __future__ import annotations

import pytest

from lamosim.hwspec import (
    AreaConsts,
    AttnVariant,
    ChipletSpec,
    CoolingSpec,
    DramStackSpec,
    FlowLevel,
    ModelSpec,
    PeSpec,
    PowerConsts,
    Role,
    SystemSpec,
)


def make_dram(**over) -> DramStackSpec:
    base = dict(
        n_layer=2,
        n_bank=8,
        n_io_bits=64,
        burst_len=8,
        capacity_bytes=2 * 8 * (16 << 20),
        t_rcd_ns=2.5,
        t_cas_ns=2.5,
        t_rp_ns=2.5,
        t_rfc_ns=130.65,
        t_rfi_base_ns=3900.0,
        io_clock_hz=2.0e9,
        energy_per_bit_pj=0.7,
    )
    base.update(over)
    return DramStackSpec(**base)


def make_pe(**over) -> PeSpec:
    base = dict(
        n_core=1,
        sa_rows=32,
        sa_cols=32,
        base_sa_rows=32,
        sram_capacity_bytes=256 << 10,
        vector_regs=32,
        n_mc=4,
    )
    base.update(over)
    return PeSpec(**base)


def make_chiplet(role=Role.PREFILL, **over) -> ChipletSpec:
    base = dict(
        role=role,
        pe_rows=2,
        pe_cols=2,
        pe=make_pe(),
        dram=make_dram(),
        clock_hz=1.0e9,
        area_budget_mm2=600.0,
        tdp_w=500.0,
        area=AreaConsts(pe_mm2=20.0, dram_die_mm2=560.0, misc_mm2=40.0),
        power=PowerConsts(leak_base_w_per_pe=2.0, dram_static_w_per_layer=1.0,
                          refresh_w_per_layer=0.25),
    )
    base.update(over)
    return ChipletSpec(**base)


def make_cooling(**over) -> CoolingSpec:
    base = dict(
        ambient_c=45.0,
        r_coldplate=0.04,
        r_per_dram_layer=0.015,
        r_bond=0.01,
        r_lateral=0.5,
        flow_levels=(FlowLevel(1.0, 10.0), FlowLevel(0.7, 25.0), FlowLevel(0.5, 60.0)),
        t_limit_c=105.0,
    )
    base.update(over)
    return CoolingSpec(**base)


def make_system(**over) -> SystemSpec:
    base = dict(
        chiplet_types={
            "pc": make_chiplet(Role.PREFILL),
            "dc": make_chiplet(Role.DECODE, dram=make_dram(n_layer=4, capacity_bytes=4 * 8 * (16 << 20))),
        },
        placement={(0, 0): "pc", (1, 0): "pc", (2, 0): "dc", (3, 0): "dc"},
        alpha_noc_s_per_byte=1.0 / 200e9,
        alpha_nop_s_per_byte=1.0 / 800e9,
        beta_noc_s_per_hop=1e-9,
        beta_nop_s_per_hop=4e-9,
        edge_hops=1,
        rack_power_limit_w=5000.0,
        cooling=make_cooling(),
    )
    base.update(over)
    return SystemSpec(**base)


def make_model(**over) -> ModelSpec:
    base = dict(
        name="tiny",
        n_layers=2,
        n_heads=2,
        n_kv_heads=2,
        d_head=4,
        d_model=8,
        d_ffn=16,
        attn_variant=AttnVariant.MHA,
        dtype_bytes=2,
    )
    base.update(over)
    return ModelSpec(**base)


@pytest.fixture
def dram():
    return make_dram()


@pytest.fixture
def pe():
    return make_pe()


@pytest.fixture
def chiplet():
    return make_chiplet()


@pytest.fixture
def system():
    return make_system()


@pytest.fixture
def tiny_model():
    return make_model()
