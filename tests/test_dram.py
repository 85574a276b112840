"""DRAM timing oracle values (hand arithmetic) and refresh-derating behavior."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dram
from lamosim.dram import (
    MemRequest,
    RefreshStall,
    effective_bandwidth,
    mem_access_time,
    mem_commands,
    refresh_derate,
)


def flat_dram(**over):
    """Base ratio t_rfc/t_rfi exactly 0.05 for the hand-worked latency case."""
    base = dict(t_rfc_ns=195.0, t_rfi_base_ns=3900.0, io_clock_hz=1.0e9,
                n_io_bits=64, burst_len=8, tsv_delay_ns=0.0)
    base.update(over)
    return make_dram(**base)


def test_command_count_formula():
    d = flat_dram()
    # ceil(data_bits / (banks * io * burst)): 1 Mib over 4x64x8 = 2048 bits/cmd
    req = MemRequest(1 << 20, target_banks=4)
    assert mem_commands(req, d) == (1 << 20) // 2048
    assert mem_commands(MemRequest(2049, 4), d) == 2
    assert mem_commands(MemRequest(0, 4), d) == 0


def test_derate_step_function():
    d = flat_dram()
    assert refresh_derate(d, 65.0) == pytest.approx(0.05)
    assert refresh_derate(d, 85.0) == pytest.approx(0.05)
    assert refresh_derate(d, 85.1) == pytest.approx(0.10)
    assert refresh_derate(d, 95.0) == pytest.approx(0.10)
    assert refresh_derate(d, 105.0) == pytest.approx(0.20)
    assert refresh_derate(d, 125.0) == pytest.approx(0.80)


def test_hand_worked_latency_at_65c():
    # One command moving 512 bits over one bank channel:
    #   fixed 2.5+2.5+2.5 = 7.5 ns, burst 8 beats at 1 GHz = 8 ns, tsv 0
    #   derate 0.05 -> 15.5 / 0.95 = 16.3158 ns
    d = flat_dram()
    req = MemRequest(512, target_banks=1)
    cost = mem_access_time(req, d, 65.0)
    assert cost.commands == 1
    assert cost.latency_s == pytest.approx(15.5e-9 / 0.95, rel=1e-12)
    assert cost.latency_s == pytest.approx(16.3158e-9, rel=1e-4)


def test_hand_worked_latency_at_105c():
    # Same access at derate 0.20 -> 15.5 / 0.8 = 19.375 ns; bandwidth falls
    # to 84.2% of the 65 C value.
    d = flat_dram()
    req = MemRequest(512, target_banks=1)
    cold = mem_access_time(req, d, 65.0)
    hot = mem_access_time(req, d, 105.0)
    assert hot.latency_s == pytest.approx(15.5e-9 / 0.8, rel=1e-12)
    assert hot.effective_bw_bytes / cold.effective_bw_bytes == pytest.approx(0.8421, abs=1e-4)


def test_refresh_stall():
    d = flat_dram()
    # 0.05 doubles per 10 C bin above 85; at 135+ it passes 1.0
    with pytest.raises(RefreshStall):
        mem_access_time(MemRequest(512, 1), d, 140.0)
    with pytest.raises(RefreshStall):
        effective_bandwidth(d, 140.0)


def test_energy_linear_in_bits():
    d = flat_dram(refresh_energy_per_cmd_pj=3.0)
    a = mem_access_time(MemRequest(2048, 1), d, 65.0)
    assert a.energy_j == pytest.approx((2048 * 0.7 + a.commands * 3.0) * 1e-12)


def test_target_banks_bounded():
    d = flat_dram()
    with pytest.raises(ValueError):
        mem_commands(MemRequest(512, d.channels + 1), d)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(1, 1 << 24), banks=st.integers(1, 16),
       temp=st.floats(20.0, 120.0))
def test_latency_monotone_properties(bits, banks, temp):
    d = flat_dram()
    req = MemRequest(bits, banks)
    cost = mem_access_time(req, d, temp)
    assert cost.latency_s > 0
    # more data at the same banks never gets faster
    bigger = mem_access_time(MemRequest(bits * 2, banks), d, temp)
    assert bigger.latency_s >= cost.latency_s
    # hotter never gets faster
    hotter = mem_access_time(req, d, min(temp + 15.0, 125.0))
    assert hotter.latency_s >= cost.latency_s
    # effective bandwidth never exceeds the channel-slice peak
    peak = banks * d.n_io_bits * d.io_clock_hz / 8.0
    assert cost.effective_bw_bytes <= peak * (1 + 1e-9)
