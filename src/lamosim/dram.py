"""Stacked-DRAM access timing, energy, and thermal refresh derating.

An access moves `data_bits` over `target_banks` parallel bank channels.
Command count:

    n_cmd = ceil(data_bits / (target_banks * n_io_bits * burst_len))

Base latency charges the fixed command overhead once (pipelined command
stream), then the burst beats, then TSV delay:

    t = (t_rcd + t_cas + t_rp) + burst_len * n_cmd / io_clock + tsv

Refresh steals a duty fraction `derate` of the array's time, inflating the
served latency to t / (1 - derate). The refresh interval halves for every
10 C above the retention base temperature (step function, JEDEC-style bins),
so derate = t_rfc / t_rfi(temp) doubles per bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hwspec import DramStackSpec, Infeasible


class RefreshStall(Infeasible):
    """Refresh duty reached 100%: the stack serves no data at this temperature."""


@dataclass(frozen=True)
class MemRequest:
    data_bits: int
    target_banks: int

    def __post_init__(self) -> None:
        if self.data_bits < 0:
            raise ValueError("data_bits must be >= 0")
        if self.target_banks < 1:
            raise ValueError("target_banks must be >= 1")


@dataclass(frozen=True)
class MemCost:
    latency_s: float
    energy_j: float
    commands: int
    effective_bw_bytes: float


def refresh_derate(d: DramStackSpec, temp_c: float) -> float:
    """Fraction of time the stack spends refreshing at this temperature."""
    bins = max(0, math.ceil((temp_c - d.retention_base_temp_c) / 10.0))
    t_rfi = d.t_rfi_base_ns * 2.0 ** (-bins)
    if t_rfi == 0.0:  # interval halved into underflow
        return math.inf
    return d.t_rfc_ns / t_rfi


def mem_commands(req: MemRequest, d: DramStackSpec) -> int:
    """Commands needed to move the request over the targeted bank channels."""
    if req.target_banks > d.channels:
        raise ValueError(
            f"target_banks {req.target_banks} exceeds {d.channels} stack channels")
    if req.data_bits == 0:
        return 0
    per_cmd_bits = req.target_banks * d.n_io_bits * d.burst_len
    return math.ceil(req.data_bits / per_cmd_bits)


def mem_access_time(req: MemRequest, d: DramStackSpec, temp_c: float) -> MemCost:
    """Latency, energy, and effective bandwidth of one access at temperature.

    Raises RefreshStall when the refresh duty factor reaches 1.
    """
    derate = refresh_derate(d, temp_c)
    if derate >= 1.0:
        raise RefreshStall(
            f"refresh duty {derate:.2f} >= 1 at {temp_c:.1f} C "
            f"(t_rfc {d.t_rfc_ns} ns vs derated t_rfi)")
    n_cmd = mem_commands(req, d)
    if n_cmd == 0:
        return MemCost(0.0, 0.0, 0, 0.0)
    base_ns = (
        d.t_rcd_ns + d.t_cas_ns + d.t_rp_ns
        + d.burst_len * n_cmd / d.io_clock_hz * 1e9
        + d.tsv_delay_ns
    )
    latency_s = base_ns * 1e-9 / (1.0 - derate)
    energy_j = (
        req.data_bits * d.energy_per_bit_pj
        + n_cmd * d.refresh_energy_per_cmd_pj
    ) * 1e-12
    bw = (req.data_bits / 8.0) / latency_s
    return MemCost(latency_s=latency_s, energy_j=energy_j, commands=n_cmd, effective_bw_bytes=bw)


def effective_bandwidth(d: DramStackSpec, temp_c: float) -> float:
    """Sustained streaming bandwidth (bytes/s) over all of the stack's channels.

    Long-stream limit: command overhead amortized away, only burst beats and
    the refresh duty remain.
    """
    derate = refresh_derate(d, temp_c)
    if derate >= 1.0:
        raise RefreshStall(f"refresh duty {derate:.2f} >= 1 at {temp_c:.1f} C")
    peak = d.channels * d.n_io_bits * d.io_clock_hz / 8.0
    return peak * (1.0 - derate)
