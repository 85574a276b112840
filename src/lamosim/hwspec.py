"""Hardware and model specifications.

Frozen dataclasses describing DRAM stacks, processing elements, chiplets,
systems, cooling, and transformer models, plus strict JSON parsing and
system-level validation. Every other module consumes these types; none of
them mutates a spec after construction.

JSON configs carry a `"schema": 1` field and use unit-suffixed field names
(`t_rcd_ns`, `capacity_bytes`). `parse_json` reads each spec by its annotations
and rejects unknown keys and wrongly typed values, naming the field path.

Every module raises a subclass of `Infeasible` for valid input that admits no
run: the CLI exits 3 on any of them, and the system DSE rejects the design.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, get_args, get_origin, get_type_hints

SCHEMA_VERSION = 1
ABSOLUTE_ZERO_C = -273.15

# Violation kinds reported by validate_system.
AREA_EXCEEDED = "AreaExceeded"
POWER_EXCEEDED = "PowerExceeded"
INCONSISTENT_CAPACITY = "InconsistentCapacity"


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class Infeasible(Exception):
    """Valid inputs that admit no feasible design, mapping or run (exit 3)."""


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


class SystemValidationError(Infeasible):
    """Raised by validate_system with the complete list of violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class Role(Enum):
    """A chiplet's pool, and the phase that pool runs (also `ops.Phase`)."""

    PREFILL = "prefill"
    DECODE = "decode"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@dataclass(frozen=True)
class DramStackSpec:
    """One 3D DRAM stack: geometry, timing, and energy constants.

    Timing fields are nanoseconds, capacities bytes, energies picojoules.
    `t_rfi_base_ns` is the refresh interval at or below
    `retention_base_temp_c`; it halves for every further 10 degrees.
    """

    n_layer: int
    n_bank: int
    n_io_bits: int
    burst_len: int
    capacity_bytes: int
    t_rcd_ns: float
    t_cas_ns: float
    t_rp_ns: float
    t_rfc_ns: float
    t_rfi_base_ns: float
    io_clock_hz: float
    energy_per_bit_pj: float
    retention_base_temp_c: float = 85.0
    tsv_delay_ns: float = 0.0
    refresh_energy_per_cmd_pj: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_layer", "n_bank", "n_io_bits", "burst_len"):
            _require(getattr(self, name) >= 1, f"dram.{name} must be >= 1")
        _require(self.capacity_bytes >= 1, "dram.capacity_bytes must be >= 1")
        _require(
            self.capacity_bytes % (self.n_layer * self.n_bank) == 0,
            "dram.capacity_bytes must split evenly over n_layer * n_bank banks",
        )
        for name in ("t_rcd_ns", "t_cas_ns", "t_rp_ns", "tsv_delay_ns"):
            _require(getattr(self, name) >= 0.0, f"dram.{name} must be >= 0")
        _require(self.t_rfc_ns > 0.0, "dram.t_rfc_ns must be > 0")
        _require(
            self.t_rfc_ns < self.t_rfi_base_ns,
            "dram.t_rfc_ns must be < t_rfi_base_ns (refresh cannot saturate at base temp)",
        )
        _require(self.io_clock_hz > 0.0, "dram.io_clock_hz must be > 0")
        _require(self.energy_per_bit_pj > 0.0, "dram.energy_per_bit_pj must be > 0")
        _require(self.refresh_energy_per_cmd_pj >= 0.0, "dram.refresh_energy_per_cmd_pj must be >= 0")
        _require(self.retention_base_temp_c >= ABSOLUTE_ZERO_C,
                 f"dram.retention_base_temp_c must be >= {ABSOLUTE_ZERO_C}")

    @property
    def channels(self) -> int:
        """Independently addressable bank channels in the stack."""
        return self.n_layer * self.n_bank


@dataclass(frozen=True)
class PeSpec:
    """One processing element: systolic array, SRAM, VPU, memory controllers."""

    n_core: int
    sa_rows: int
    sa_cols: int
    base_sa_rows: int
    sram_capacity_bytes: int
    vector_regs: int
    n_mc: int
    pj_per_flop: float = 0.5

    def __post_init__(self) -> None:
        for name in ("n_core", "sa_rows", "sa_cols", "base_sa_rows", "vector_regs", "n_mc"):
            _require(getattr(self, name) >= 1, f"pe.{name} must be >= 1")
        _require(self.sram_capacity_bytes >= 1, "pe.sram_capacity_bytes must be >= 1")
        _require(
            self.sa_rows % self.base_sa_rows == 0,
            "pe.base_sa_rows must divide sa_rows",
        )
        _require(self.pj_per_flop > 0.0, "pe.pj_per_flop must be > 0")

    @property
    def n_base_sa(self) -> int:
        return self.sa_rows // self.base_sa_rows


@dataclass(frozen=True)
class AreaConsts:
    """Constant-per-component area table (gate-level estimation stand-in)."""

    pe_mm2: float
    dram_die_mm2: float
    misc_mm2: float = 0.0

    def __post_init__(self) -> None:
        _require(self.pe_mm2 > 0.0, "area.pe_mm2 must be > 0")
        _require(self.dram_die_mm2 > 0.0, "area.dram_die_mm2 must be > 0")
        _require(self.misc_mm2 >= 0.0, "area.misc_mm2 must be >= 0")


@dataclass(frozen=True)
class PowerConsts:
    """Constant-per-component power table.

    `leak_base_w_per_pe` is logic leakage per PE at 65 C; thermal scales it by
    (1 + 0.005 * (T - 65)). `refresh_w_per_layer` is refresh power per DRAM
    layer at the base refresh rate; it scales with the refresh duty factor.
    """

    leak_base_w_per_pe: float
    dram_static_w_per_layer: float
    refresh_w_per_layer: float = 0.0

    def __post_init__(self) -> None:
        _require(self.leak_base_w_per_pe >= 0.0, "power.leak_base_w_per_pe must be >= 0")
        _require(self.dram_static_w_per_layer >= 0.0, "power.dram_static_w_per_layer must be >= 0")
        _require(self.refresh_w_per_layer >= 0.0, "power.refresh_w_per_layer must be >= 0")


@dataclass(frozen=True)
class ChipletSpec:
    """A logic die plus its DRAM stack, typed by serving role."""

    role: Role
    pe_rows: int
    pe_cols: int
    pe: PeSpec
    dram: DramStackSpec
    clock_hz: float
    area_budget_mm2: float
    tdp_w: float
    area: AreaConsts
    power: PowerConsts

    def __post_init__(self) -> None:
        _require(self.pe_rows >= 1 and self.pe_cols >= 1, "chiplet PE grid dims must be >= 1")
        _require(self.clock_hz > 0.0, "chiplet.clock_hz must be > 0")
        _require(self.area_budget_mm2 > 0.0, "chiplet.area_budget_mm2 must be > 0")
        _require(self.tdp_w > 0.0, "chiplet.tdp_w must be > 0")

    @property
    def n_pe(self) -> int:
        return self.pe_rows * self.pe_cols

    def logic_area_mm2(self) -> float:
        return self.n_pe * self.area.pe_mm2 + self.area.misc_mm2


@dataclass(frozen=True)
class ChipletMetrics:
    """Derived peaks for one chiplet."""

    peak_flops: float
    peak_bw_bytes: float
    peak_power_w: float


def derive_chiplet_metrics(c: ChipletSpec) -> ChipletMetrics:
    """Peak compute, bandwidth and power for one chiplet.

    peak_flops = n_pe * n_core * 2 * sa_rows * sa_cols * clock
    peak_bw    = n_layer * n_bank * n_io_bits * io_clock / 8
    Peak power = dynamic at peak (compute pJ/FLOP + DRAM pJ/bit) plus the
    static table entries at the 65 C reference.
    """
    pe = c.pe
    peak_flops = c.n_pe * pe.n_core * 2.0 * pe.sa_rows * pe.sa_cols * c.clock_hz
    d = c.dram
    peak_bw = d.n_layer * d.n_bank * d.n_io_bits * d.io_clock_hz / 8.0
    compute_w = peak_flops * pe.pj_per_flop * 1e-12
    dram_w = peak_bw * 8.0 * d.energy_per_bit_pj * 1e-12
    static_w = (
        c.n_pe * c.power.leak_base_w_per_pe
        + d.n_layer * (c.power.dram_static_w_per_layer + c.power.refresh_w_per_layer)
    )
    peak_power = compute_w + dram_w + static_w
    return ChipletMetrics(
        peak_flops=peak_flops,
        peak_bw_bytes=peak_bw,
        peak_power_w=peak_power,
    )


@dataclass(frozen=True)
class FlowLevel:
    """One coolant flow setting: coldplate resistance scale and pump power."""

    r_scale: float
    pump_w: float

    def __post_init__(self) -> None:
        _require(self.r_scale > 0.0, "cooling flow r_scale must be > 0")
        _require(self.pump_w >= 0.0, "cooling flow pump_w must be >= 0")


@dataclass(frozen=True)
class CoolingSpec:
    """Liquid-cooling envelope: thermal resistance ladder and flow levels.

    Heat path per chiplet column: logic die -> DRAM layers -> coldplate ->
    ambient. Resistances are K/W. Flow levels must come with strictly
    decreasing coldplate resistance and non-decreasing pump power.
    """

    ambient_c: float
    r_coldplate: float
    r_per_dram_layer: float
    r_bond: float  # logic-to-stack interface
    r_lateral: float
    flow_levels: tuple[FlowLevel, ...]
    t_limit_c: float = 105.0

    def __post_init__(self) -> None:
        for name in ("ambient_c", "t_limit_c"):
            _require(getattr(self, name) >= ABSOLUTE_ZERO_C,
                     f"cooling.{name} must be >= {ABSOLUTE_ZERO_C}")
        _require(self.r_coldplate > 0.0, "cooling.r_coldplate must be > 0")
        _require(self.r_per_dram_layer > 0.0, "cooling.r_per_dram_layer must be > 0")
        _require(self.r_bond >= 0.0, "cooling.r_bond must be >= 0")
        _require(self.r_lateral > 0.0, "cooling.r_lateral must be > 0")
        _require(len(self.flow_levels) >= 1, "cooling needs at least one flow level")
        scales = [f.r_scale for f in self.flow_levels]
        pumps = [f.pump_w for f in self.flow_levels]
        _require(
            all(a > b for a, b in zip(scales, scales[1:])),
            "cooling flow levels must have strictly decreasing r_scale",
        )
        _require(
            all(a <= b for a, b in zip(pumps, pumps[1:])),
            "cooling flow levels must have non-decreasing pump_w",
        )


@dataclass(frozen=True)
class SystemSpec:
    """Chiplets placed on a 2D package mesh plus interconnect constants.

    `placement` maps mesh coordinates to names in `chiplet_types`; every placed
    chiplet of one role has the same type, so each pool is uniform. Interconnect
    cost model: t = alpha * bytes + beta * hops at each level; crossing a
    chiplet boundary costs `edge_hops` extra on-chip hops per crossing.
    """

    chiplet_types: dict[str, ChipletSpec]
    placement: dict[tuple[int, int], str]
    alpha_noc_s_per_byte: float
    alpha_nop_s_per_byte: float
    beta_noc_s_per_hop: float
    beta_nop_s_per_hop: float
    edge_hops: int
    rack_power_limit_w: float
    cooling: CoolingSpec
    comm_energy_noc_pj_per_byte_hop: float = 0.1
    comm_energy_nop_pj_per_byte_hop: float = 0.5

    def __post_init__(self) -> None:
        _require(len(self.placement) >= 1, "system placement must not be empty")
        for coord, name in self.placement.items():
            _require(name in self.chiplet_types, f"placement at {coord} references unknown chiplet type {name!r}")
        for role in Role:
            names = {n for n in self.placement.values() if self.chiplet_types[n].role is role}
            _require(len(names) <= 1, f"{role.value} pool mixes chiplet types {sorted(names)}")
        for a in ("alpha_noc_s_per_byte", "alpha_nop_s_per_byte", "beta_noc_s_per_hop",
                  "beta_nop_s_per_hop", "comm_energy_noc_pj_per_byte_hop",
                  "comm_energy_nop_pj_per_byte_hop"):
            _require(getattr(self, a) >= 0.0, f"system.{a} must be >= 0")
        _require(self.edge_hops >= 0, "system.edge_hops must be >= 0")
        _require(self.rack_power_limit_w > 0.0, "system.rack_power_limit_w must be > 0")

    def chiplet_at(self, coord: tuple[int, int]) -> ChipletSpec:
        return self.chiplet_types[self.placement[coord]]

    def coords_for_role(self, role: Role) -> list[tuple[int, int]]:
        return sorted(c for c, n in self.placement.items() if self.chiplet_types[n].role is role)


class AttnVariant(Enum):
    """Attention variants the cost models implement. MLA (a latent KV cache
    with up-projections) is not modelled, so parse_model rejects "mla"."""

    MHA = "mha"
    GQA = "gqa"


@dataclass(frozen=True)
class ModelSpec:
    """Decoder-only transformer geometry. Footprints cover decoder blocks only
    (qkv/o projections and the two FFN matrices); embeddings are excluded."""

    name: str
    n_layers: int
    n_heads: int
    n_kv_heads: int
    d_head: int
    d_model: int
    d_ffn: int
    attn_variant: AttnVariant
    dtype_bytes: int

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "n_kv_heads", "d_head", "d_model", "d_ffn", "dtype_bytes"):
            _require(getattr(self, name) >= 1, f"model.{name} must be >= 1")
        _require(self.d_model == self.n_heads * self.d_head, "model.d_model must equal n_heads * d_head")
        _require(self.n_heads % self.n_kv_heads == 0, "model.n_kv_heads must divide n_heads")
        if self.attn_variant is AttnVariant.MHA:
            _require(self.n_kv_heads == self.n_heads, "MHA requires n_kv_heads == n_heads")

    def weights_per_layer(self) -> int:
        """Parameter count of one decoder block."""
        qkv = self.d_model * (self.d_model + 2 * self.n_kv_heads * self.d_head)
        o = self.d_model * self.d_model
        ffn = 2 * self.d_model * self.d_ffn
        return qkv + o + ffn

    def weight_bytes(self) -> int:
        return self.n_layers * self.weights_per_layer() * self.dtype_bytes

    def kv_bytes_per_token(self) -> int:
        return 2 * self.n_layers * self.n_kv_heads * self.d_head * self.dtype_bytes


def chiplet_violations(name: str, c: ChipletSpec) -> list[Violation]:
    """Budget checks for a single chiplet, independent of any system."""
    m = derive_chiplet_metrics(c)
    out: list[Violation] = []
    logic = c.logic_area_mm2()
    if logic > c.area.dram_die_mm2:
        out.append(Violation(
            AREA_EXCEEDED, name,
            f"logic die {logic:.1f} mm2 exceeds DRAM die footprint {c.area.dram_die_mm2:.1f} mm2"))
    die_area = max(logic, c.area.dram_die_mm2)
    if die_area > c.area_budget_mm2:
        out.append(Violation(
            AREA_EXCEEDED, name,
            f"die area {die_area:.1f} mm2 exceeds budget {c.area_budget_mm2:.1f} mm2"))
    if m.peak_power_w > c.tdp_w:
        out.append(Violation(
            POWER_EXCEEDED, name,
            f"derived peak power {m.peak_power_w:.1f} W exceeds tdp {c.tdp_w:.1f} W"))
    if c.pe.n_mc * c.n_pe > c.dram.channels:
        out.append(Violation(
            INCONSISTENT_CAPACITY, name,
            f"{c.n_pe} PEs x {c.pe.n_mc} MCs exceed {c.dram.channels} DRAM channels"))
    return out


def validate_system(spec: SystemSpec, model: ModelSpec | None = None) -> float:
    """Check area/power/capacity limits for every chiplet and the rack.

    Raises SystemValidationError carrying the complete violation list; on
    success returns the summed peak power of the placed chiplets. If `model`
    is given, each role pool must hold at least one full copy of its weights.
    """
    violations: list[Violation] = []
    peak_w: dict[str, float] = {}
    for name, c in sorted(spec.chiplet_types.items()):
        peak_w[name] = derive_chiplet_metrics(c).peak_power_w
        violations.extend(chiplet_violations(name, c))
    total_power = sum(peak_w[name] for name in spec.placement.values())
    if total_power > spec.rack_power_limit_w:
        violations.append(Violation(
            POWER_EXCEEDED, "rack",
            f"summed chiplet peak power {total_power:.0f} W exceeds rack limit "
            f"{spec.rack_power_limit_w:.0f} W"))
    if model is not None:
        wb = model.weight_bytes()
        for role in (Role.PREFILL, Role.DECODE):
            coords = spec.coords_for_role(role)
            cap = sum(spec.chiplet_at(c).dram.capacity_bytes for c in coords)
            if coords and wb > cap:
                violations.append(Violation(
                    INCONSISTENT_CAPACITY, f"{role.value}-pool",
                    f"weights {wb} B exceed pool capacity {cap} B"))
    if violations:
        raise SystemValidationError(violations)
    return total_power


# --- strict JSON parsing ----------------------------------------------------


# A dataclass's field types by name, resolved from its annotations once per class.
_field_types = functools.cache(get_type_hints)


@dataclass(frozen=True)
class _PlacementEntry:
    at: tuple[int, ...]
    type: str


def parse_json(tp: Any, obj: Any, ctx: str) -> Any:
    """Read a JSON value as type `tp`, naming the field path `ctx` on error.

    A dataclass takes exactly its own fields; `tuple[X, ...]` reads a list,
    `dict[str, X]` an object, an enum its value. An int rejects fractions and
    booleans but reads an integer-valued float such as 2.0 as 2. A float takes
    any finite non-boolean number as given, so an int stays an int; the NaN
    and Infinity literals json.loads reads are rejected. The one dict not
    keyed by strings, SystemSpec.placement, reads a list of coordinate entries.
    """
    origin = get_origin(tp)
    if origin is tuple:
        if not isinstance(obj, list):
            raise ConfigError(f"{ctx}: expected a list, got {type(obj).__name__}")
        item = get_args(tp)[0]
        return tuple(parse_json(item, v, f"{ctx}[{i}]") for i, v in enumerate(obj))
    if origin is dict:
        key, item = get_args(tp)
        if key is not str:  # SystemSpec.placement: [{"at": [x, y], "type": name}, ...]
            placement = {}
            for i, e in enumerate(parse_json(tuple[_PlacementEntry, ...], obj, ctx)):
                if len(e.at) != 2:
                    raise ConfigError(f"{ctx}[{i}].at: expected [x, y]")
                if e.at in placement:
                    raise ConfigError(f"{ctx}[{i}]: duplicate coordinate {e.at}")
                placement[e.at] = e.type
            return placement
        if not isinstance(obj, dict):
            raise ConfigError(f"{ctx}: expected an object, got {type(obj).__name__}")
        return {k: parse_json(item, v, f"{ctx}.{k}") for k, v in obj.items()}
    if tp in (int, float, str):
        if tp is int and isinstance(obj, float) and obj.is_integer():
            return int(obj)
        if isinstance(obj, bool) or not isinstance(obj, (int, float) if tp is float else tp):
            raise ConfigError(f"{ctx}: expected {tp.__name__}, got {obj!r}")
        if isinstance(obj, float) and not math.isfinite(obj):
            raise ConfigError(f"{ctx}: expected a finite number, got {obj!r}")
        return obj
    if issubclass(tp, Enum):
        try:
            return tp(obj)
        except ValueError:
            raise ConfigError(
                f"{ctx}: must be one of {[m.value for m in tp]}, got {obj!r}") from None
    types = _field_types(tp)
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(types)
    if unknown:
        raise ConfigError(f"{ctx}: unknown fields {sorted(unknown)}")
    kwargs = {k: parse_json(types[k], v, f"{ctx}.{k}") for k, v in obj.items()}
    try:
        return tp(**kwargs)
    except TypeError as e:  # a field without a default is missing
        raise ConfigError(f"{ctx}: {e}") from None


def _unversioned(d: Any, ctx: str) -> dict[str, Any]:
    """A top-level config object without its `schema` field, once that is checked."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(d).__name__}")
    schema = d.get("schema")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:  # True == 1
        raise ConfigError(f"{ctx}: schema must be {SCHEMA_VERSION}")
    return {k: v for k, v in d.items() if k != "schema"}


def parse_chiplet(d: Any, ctx: str = "chiplet") -> ChipletSpec:
    return parse_json(ChipletSpec, d, ctx)


def parse_system(d: Any) -> SystemSpec:
    return parse_json(SystemSpec, _unversioned(d, "system"), "system")


def parse_model(d: Any) -> ModelSpec:
    return parse_json(ModelSpec, _unversioned(d, "model"), "model")


def load_system(path: str) -> SystemSpec:
    with open(path) as f:
        return parse_system(json.load(f))


def load_model(path: str) -> ModelSpec:
    with open(path) as f:
        return parse_model(json.load(f))


def dump_json(obj: dict[str, Any]) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
