"""Spec construction, derived metrics, validation, and strict JSON parsing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamosim
from conftest import make_chiplet, make_dram, make_model, make_pe, make_system
from lamosim import hwspec
from lamosim.hwspec import (
    AttnVariant,
    ConfigError,
    Role,
    SystemValidationError,
    derive_chiplet_metrics,
    load_model,
    load_system,
    parse_model,
    parse_system,
    validate_system,
)

CONFIGS = Path(lamosim.__file__).parent / "configs"


def packaged(name: str) -> dict:
    """A packaged config as a plain JSON object, for mutation."""
    return json.loads((CONFIGS / name).read_text())


def test_dram_invariants():
    with pytest.raises(ConfigError):
        make_dram(n_layer=0)
    with pytest.raises(ConfigError):
        make_dram(capacity_bytes=12345)  # not divisible over banks
    with pytest.raises(ConfigError):
        make_dram(t_rfc_ns=5000.0)  # refresh saturates at base temp


def test_pe_invariants():
    with pytest.raises(ConfigError):
        make_pe(base_sa_rows=5)  # must divide sa_rows
    assert make_pe(base_sa_rows=8).n_base_sa == 4


def test_peak_flops_formula():
    # 4 PEs x 1 core x 2 x 32 x 32 x 1 GHz
    m = derive_chiplet_metrics(make_chiplet())
    assert m.peak_flops == pytest.approx(4 * 1 * 2 * 32 * 32 * 1e9)


def test_peak_bw_formula():
    # 2 layers x 8 banks x 64 bits x 2 GHz / 8
    m = derive_chiplet_metrics(make_chiplet())
    assert m.peak_bw_bytes == pytest.approx(2 * 8 * 64 * 2e9 / 8)


@settings(max_examples=30, deadline=None)
@given(cores=st.integers(1, 8), layers=st.integers(1, 8))
def test_metrics_monotone(cores, layers):
    base = make_chiplet()
    more_cores = make_chiplet(pe=make_pe(n_core=cores + 1))
    fewer_cores = make_chiplet(pe=make_pe(n_core=cores))
    assert derive_chiplet_metrics(more_cores).peak_flops >= \
        derive_chiplet_metrics(fewer_cores).peak_flops
    per_bank = 16 << 20
    d1 = make_dram(n_layer=layers, capacity_bytes=layers * 8 * per_bank)
    d2 = make_dram(n_layer=layers + 1, capacity_bytes=(layers + 1) * 8 * per_bank)
    m1 = derive_chiplet_metrics(make_chiplet(dram=d1))
    m2 = derive_chiplet_metrics(make_chiplet(dram=d2))
    assert m2.peak_bw_bytes >= m1.peak_bw_bytes
    assert derive_chiplet_metrics(base).peak_power_w > 0


def test_validate_power_exceeded():
    bad = make_chiplet(tdp_w=1.0)
    sys_spec = make_system(chiplet_types={"pc": bad}, placement={(0, 0): "pc"})
    with pytest.raises(SystemValidationError) as e:
        validate_system(sys_spec)
    kinds = {v.kind for v in e.value.violations}
    assert hwspec.POWER_EXCEEDED in kinds


def test_validate_area_exceeded():
    bad = make_chiplet(area_budget_mm2=10.0)
    sys_spec = make_system(chiplet_types={"pc": bad}, placement={(0, 0): "pc"})
    with pytest.raises(SystemValidationError) as e:
        validate_system(sys_spec)
    assert any(v.kind == hwspec.AREA_EXCEEDED for v in e.value.violations)


def test_validate_collects_all_violations():
    bad = make_chiplet(tdp_w=1.0, area_budget_mm2=10.0)
    sys_spec = make_system(chiplet_types={"pc": bad}, placement={(0, 0): "pc"})
    with pytest.raises(SystemValidationError) as e:
        validate_system(sys_spec)
    kinds = [v.kind for v in e.value.violations]
    assert hwspec.POWER_EXCEEDED in kinds and hwspec.AREA_EXCEEDED in kinds


def test_validate_ok_populates_metrics(system):
    total = validate_system(system)
    assert total == sum(derive_chiplet_metrics(system.chiplet_at(c)).peak_power_w
                        for c in system.placement)
    assert total > 0
    assert len(system.coords_for_role(Role.PREFILL)) == 2
    assert len(system.coords_for_role(Role.DECODE)) == 2


def test_weights_must_fit_pool(system):
    huge = make_model(n_layers=4096, n_heads=64, n_kv_heads=64, d_head=128,
                      d_model=8192, d_ffn=32768)
    with pytest.raises(SystemValidationError) as e:
        validate_system(system, huge)
    assert any(v.kind == hwspec.INCONSISTENT_CAPACITY for v in e.value.violations)


def test_model_invariants():
    with pytest.raises(ConfigError):
        make_model(d_model=9)  # != heads * d_head
    with pytest.raises(ConfigError):
        make_model(n_kv_heads=3)  # does not divide heads=2
    with pytest.raises(ConfigError):
        make_model(n_heads=4, n_kv_heads=2, d_model=16)  # MHA demands equal counts
    gqa = make_model(n_heads=4, n_kv_heads=2, d_model=16, attn_variant=AttnVariant.GQA)
    assert gqa.kv_bytes_per_token() == 2 * 2 * 2 * 4 * 2


def test_kv_footprint_formula(tiny_model):
    # 2 (K and V) x layers x kv heads x d_head x dtype
    assert tiny_model.kv_bytes_per_token() == 2 * 2 * 2 * 4 * 2


def test_weight_bytes_by_hand(tiny_model):
    # qkv: 8*(8+2*2*4)=192, o: 64, ffn: 2*8*16=256 -> 512 params/layer
    assert tiny_model.weights_per_layer() == 192 + 64 + 256
    assert tiny_model.weight_bytes() == 2 * 512 * 2


def test_packaged_configs_parse():
    systems = sorted(CONFIGS.glob("system_*.json"))
    models = sorted(CONFIGS.glob("model_*.json"))
    assert len(systems) == 2 and len(models) == 2
    for path in models:
        assert load_model(str(path)).weight_bytes() > 0
    for path in systems:
        assert validate_system(load_system(str(path))) > 0


def test_unknown_fields_rejected():
    d = packaged("system_small.json")
    parse_system(d)
    d["surprise"] = 1
    with pytest.raises(ConfigError):
        parse_system(d)
    m = packaged("model_tiny.json")
    parse_model(m)
    m["n_layer"] = 3  # misspelled field
    with pytest.raises(ConfigError):
        parse_model(m)


def test_unmodelled_attention_variant_rejected():
    m = packaged("model_tiny.json")
    m["attn_variant"] = "gqa"
    parse_model(m)
    m["attn_variant"] = "mla"  # latent KV cache is not modelled
    with pytest.raises(ConfigError, match="attn_variant"):
        parse_model(m)


def test_schema_version_checked():
    d = packaged("system_small.json")
    d["schema"] = 2
    with pytest.raises(ConfigError):
        parse_system(d)
    m = packaged("model_tiny.json")
    m["schema"] = 2
    with pytest.raises(ConfigError):
        parse_model(m)


def test_pool_mixing_chiplet_types_rejected(system):
    types = dict(system.chiplet_types, pc2=system.chiplet_types["pc"])
    with pytest.raises(ConfigError, match="prefill pool mixes chiplet types"):
        make_system(chiplet_types=types, placement={**system.placement, (1, 0): "pc2"})
    make_system(chiplet_types=types)  # an unplaced type is legal: dse candidates


def test_duplicate_placement_rejected():
    d = packaged("system_small.json")
    d["placement"].append(dict(d["placement"][0]))
    with pytest.raises(ConfigError):
        parse_system(d)


def test_integer_valued_float_reads_as_int():
    d = packaged("system_small.json")
    d["chiplet_types"]["pc"]["pe_rows"] = 2.0
    d["chiplet_types"]["pc"]["clock_hz"] = 1_000_000_000  # a float field keeps an int as given
    spec = parse_system(d)
    assert spec == parse_system(packaged("system_small.json"))
    assert type(spec.chiplet_types["pc"].pe_rows) is int
    assert type(spec.chiplet_types["pc"].clock_hz) is int
