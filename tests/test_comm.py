"""Mesh hop math and star all-reduce costs against hand arithmetic."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chiplet, make_system
import lamosim
from lamosim.comm import (
    EmptyGroup,
    MeshCoord,
    allreduce_cost,
    link_delay,
    link_energy,
    manhattan,
)
from lamosim.hwspec import Role, load_system


def wide_system():
    """Single-row package of 4x4-PE chiplets with easy constants."""
    return make_system(
        chiplet_types={
            "pc": make_chiplet(Role.PREFILL, pe_rows=4, pe_cols=4),
            "dc": make_chiplet(Role.DECODE, pe_rows=4, pe_cols=4),
        },
        placement={(0, 0): "pc", (1, 0): "pc", (2, 0): "dc", (3, 0): "dc"},
        alpha_noc_s_per_byte=0.01e-9,
        alpha_nop_s_per_byte=0.04e-9,
        beta_noc_s_per_hop=5e-9,
        beta_nop_s_per_hop=20e-9,
        edge_hops=1,
    )


def test_manhattan_same_pe():
    s = wide_system()
    a = MeshCoord((0, 0), (1, 1))
    assert manhattan(a, a, s) == (0, 0)


def test_manhattan_same_chiplet():
    s = wide_system()
    a = MeshCoord((0, 0), (0, 0))
    b = MeshCoord((0, 0), (2, 3))
    assert manhattan(a, b, s) == (5, 0)


def test_manhattan_facing_edges():
    # adjacent chiplets, both PEs on the facing edges -> (edge_hops, 1)
    s = wide_system()
    a = MeshCoord((0, 0), (3, 1))
    b = MeshCoord((1, 0), (0, 1))
    assert manhattan(a, b, s) == (s.edge_hops, 1)


def test_manhattan_symmetry():
    s = wide_system()
    a = MeshCoord((0, 0), (1, 2))
    b = MeshCoord((3, 0), (2, 0))
    assert manhattan(a, b, s) == manhattan(b, a, s)


@pytest.mark.parametrize("name", ["system_ref", "system_small"])
def test_manhattan_symmetric_on_every_pe_pair(name):
    """Stage placement costs each pair of groups once and relies on this."""
    s = load_system(str(Path(lamosim.__file__).parent / "configs" / f"{name}.json"))
    pes = [MeshCoord(chip, (px, py)) for chip in sorted(s.placement)
           for py in range(s.chiplet_at(chip).pe_rows)
           for px in range(s.chiplet_at(chip).pe_cols)]
    assert len(pes) == {"system_ref": 208, "system_small": 16}[name]
    for a in pes:
        for b in pes:
            assert manhattan(a, b, s) == manhattan(b, a, s), (a, b)


def test_link_delay_linear():
    s = wide_system()
    # alpha*m + beta*h on a pure NoC path
    t = link_delay(1024, noc_hops=3, nop_hops=0, spec=s)
    assert t == pytest.approx(0.01e-9 * 1024 + 3 * 5e-9)
    # NoP serialization rate applies as soon as the path crosses chiplets
    t2 = link_delay(1024, noc_hops=1, nop_hops=2, spec=s)
    assert t2 == pytest.approx(0.04e-9 * 1024 + 5e-9 + 2 * 20e-9)


def test_link_energy_hand_value():
    s = wide_system()
    assert link_energy(1000, 3, 2, s) == 1000 * (3 * 0.1 + 2 * 0.5) * 1e-12


def test_collective_2x2_hand_value():
    # 4 members, corner center. Each of the reduce and multicast legs costs
    # 3 serialized streams + the farthest member's 2 hops.
    s = wide_system()
    group = [MeshCoord((0, 0), (x, y)) for x in (0, 1) for y in (0, 1)]
    center = MeshCoord((0, 0), (0, 0))
    cost = allreduce_cost(group, center, 1024, s)
    assert cost.latency_s == pytest.approx(2 * (0.01e-9 * 1024 * 3 + 5e-9 * 2))
    assert cost.latency_s == pytest.approx(81.44e-9, rel=1e-6)
    # 1 + 1 + 2 member hops at 0.1 pJ per byte-hop, on each leg
    assert cost.energy_j == pytest.approx(2 * 1024 * (1 + 1 + 2) * 0.1e-12)


def test_singleton_collective_free():
    s = wide_system()
    center = MeshCoord((0, 0), (0, 0))
    cost = allreduce_cost([center], center, 1 << 20, s)
    assert cost.latency_s == 0.0 and cost.energy_j == 0.0


def test_empty_group_raises():
    s = wide_system()
    with pytest.raises(EmptyGroup):
        allreduce_cost([], MeshCoord((0, 0), (0, 0)), 1, s)


def test_center_outside_box_rejected():
    s = wide_system()
    group = [MeshCoord((0, 0), (0, 0)), MeshCoord((0, 0), (1, 1))]
    with pytest.raises(ValueError):
        allreduce_cost(group, MeshCoord((3, 0), (0, 0)), 1, s)


def test_energy_scales_with_bytes_and_hops():
    s = wide_system()
    group = [MeshCoord((0, 0), (0, 0)), MeshCoord((0, 0), (3, 0))]
    center = group[0]
    e1 = allreduce_cost(group, center, 1000, s).energy_j
    e2 = allreduce_cost(group, center, 2000, s).energy_j
    assert e2 == pytest.approx(2 * e1)
    far = [MeshCoord((0, 0), (0, 0)), MeshCoord((1, 0), (3, 0))]
    e3 = allreduce_cost(far, far[0], 1000, s).energy_j
    assert e3 > e1  # NoP hops cost more energy per byte


@settings(max_examples=60, deadline=None)
@given(
    ax=st.integers(0, 3), ay=st.integers(0, 3),
    bx=st.integers(0, 3), by=st.integers(0, 3),
    ca=st.integers(0, 3), cb=st.integers(0, 3),
)
def test_manhattan_properties(ax, ay, bx, by, ca, cb):
    s = wide_system()
    a = MeshCoord((ca, 0), (ax, ay))
    b = MeshCoord((cb, 0), (bx, by))
    noc, nop = manhattan(a, b, s)
    assert noc >= 0 and nop >= 0
    assert (noc, nop) == manhattan(b, a, s)
    if a == b:
        assert (noc, nop) == (0, 0)
    assert nop == abs(ca - cb)
