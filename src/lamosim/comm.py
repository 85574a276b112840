"""Two-level mesh communication: on-chip NoC and package-level NoP.

Link cost is linear: t = alpha * bytes + beta * hops, with separate constants
per level. Routes are dimension-ordered (x then y). Inside the terminal
chiplets only the distance to the facing edge along the crossing axis counts
(edge ports span the whole edge); each boundary crossing additionally costs
`edge_hops` NoC hops to reach the die-to-die port.

The one collective is a star all-reduce around a center PE, run as a reduce
into the center and a multicast back out. Each leg serializes every
non-center member's stream through the center's port (alpha term per member,
at the member's bottleneck level), and the slowest member sets the beta term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hwspec import Infeasible, SystemSpec


class EmptyGroup(Infeasible, ValueError):
    """A group with no members: a collective over an empty member set, a pool
    too small for one group of the requested width, or a role with no chiplets."""


@dataclass(frozen=True, order=True)
class MeshCoord:
    """A PE address: chiplet mesh coordinate plus PE grid coordinate."""

    chip: tuple[int, int]
    pe: tuple[int, int]


@dataclass(frozen=True)
class CommCost:
    latency_s: float
    energy_j: float


def manhattan(a: MeshCoord, b: MeshCoord, spec: SystemSpec) -> tuple[int, int]:
    """(noc_hops, nop_hops) between two PEs under dimension-ordered routing."""
    if a.chip == b.chip:
        noc = abs(a.pe[0] - b.pe[0]) + abs(a.pe[1] - b.pe[1])
        return noc, 0
    dx = b.chip[0] - a.chip[0]
    dy = b.chip[1] - a.chip[1]
    nop = abs(dx) + abs(dy)
    src = spec.chiplet_at(a.chip)
    dst = spec.chiplet_at(b.chip)
    # Both terminal PEs are measured to their facing edge along the first
    # differing axis (edge ports span the whole edge), keeping hops symmetric.
    if dx != 0:
        exit_d = (src.pe_cols - 1 - a.pe[0]) if dx > 0 else a.pe[0]
        entry_d = b.pe[0] if dx > 0 else (dst.pe_cols - 1 - b.pe[0])
    else:
        exit_d = (src.pe_rows - 1 - a.pe[1]) if dy > 0 else a.pe[1]
        entry_d = b.pe[1] if dy > 0 else (dst.pe_rows - 1 - b.pe[1])
    noc = exit_d + entry_d + spec.edge_hops * nop
    return noc, nop


def link_delay(msg_bytes: int, noc_hops: int, nop_hops: int, spec: SystemSpec) -> float:
    """Point-to-point transfer time. The serialization rate is set by the
    slowest level on the path."""
    if msg_bytes < 0 or noc_hops < 0 or nop_hops < 0:
        raise ValueError("msg_bytes and hop counts must be >= 0")
    alpha = spec.alpha_nop_s_per_byte if nop_hops > 0 else spec.alpha_noc_s_per_byte
    return (
        alpha * msg_bytes
        + spec.beta_noc_s_per_hop * noc_hops
        + spec.beta_nop_s_per_hop * nop_hops
    )


def link_energy(msg_bytes: int, noc_hops: int, nop_hops: int, spec: SystemSpec) -> float:
    """Point-to-point transfer energy: bytes times the per-hop energy of
    every link crossed."""
    return msg_bytes * (
        noc_hops * spec.comm_energy_noc_pj_per_byte_hop
        + nop_hops * spec.comm_energy_nop_pj_per_byte_hop
    ) * 1e-12


def allreduce_cost(group: list[MeshCoord], center: MeshCoord, msg_bytes: int,
                   spec: SystemSpec) -> CommCost:
    """Star all-reduce cost over the member set.

    One leg's latency = sum of per-member serialized alpha terms + the largest
    member beta term; the reduce and the multicast leg cost the same, so the
    all-reduce costs two legs. A singleton group costs zero.
    """
    if not group:
        raise EmptyGroup("collective over an empty group")
    if msg_bytes < 0:
        raise ValueError("msg_bytes must be >= 0")
    if center not in group:  # members always qualify
        cx = [g.chip[0] for g in group]
        cy = [g.chip[1] for g in group]
        if not (min(cx) <= center.chip[0] <= max(cx) and min(cy) <= center.chip[1] <= max(cy)):
            raise ValueError("collective center must lie inside the group bounding box")
    alpha_total = 0.0
    beta_max = 0.0
    energy = 0.0
    for member in group:
        if member == center:
            continue
        noc, nop = manhattan(member, center, spec)
        alpha = spec.alpha_nop_s_per_byte if nop > 0 else spec.alpha_noc_s_per_byte
        alpha_total += alpha * msg_bytes
        beta_max = max(beta_max, spec.beta_noc_s_per_hop * noc + spec.beta_nop_s_per_hop * nop)
        energy += link_energy(msg_bytes, noc, nop, spec)
    return CommCost(2.0 * (alpha_total + beta_max), 2.0 * energy)
