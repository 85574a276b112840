"""Event-driven serving simulator for disaggregated prefill/decode.

Requests flow arrival -> prefill pipeline -> KV migration -> decode pool.
Each phase runs on its own pool, and both run the same stage pipeline: a
batch enters the first stage whenever that stage goes idle and traverses the
stages in order, with an activation handoff between consecutive stage
centers. Each stage serves batches one at a time, in the order they entered
the first stage, as pipeline stages run micro-batches in issue order. The
phases differ only in how a batch forms, the rows it hands on, and what its
last stage does:

- Prefill admits FCFS jobs of up to max_prefill_batch requests, hands on one
  row per prompt token, and emits each request's first token at the last
  stage. KV pages migrate per layer as soon as that layer's QKV projection
  has produced them, to the decode PE the plan's KV destination table names,
  serialized through one FIFO per (source chiplet, destination chiplet) pair.
- Decode runs iteration-level batching: a beat forms from every resident
  request not already in flight (continuous mode) or from the frozen batch
  (static mode), each contributing one token against its own context, and
  hands on one row per request. Projections batch across the beat;
  attention runs per request. Context lengths round up to len_bucket for
  cost lookups, which is the same as simulating padded KV pages.

Latency and energy both come from the per-PE dataflow search, the star
all-reduce, and the link model; the simulator only adds queueing on top.
Prefill itself emits the first token, so ttft is the prefill pipeline exit
and e2e == ttft + sum of decode gaps by construction.

Stage executions add their energy into per-chiplet compute and DRAM totals
for the thermal model; the roofline audit reads each distinct operator record
once, in the order it was first built, so neither grows with the trace's
length.

The engine pops (time, sequence, method, arguments) events off a heap, so
events at equal times run in the order they were scheduled. As stages serve
in entry order, a prefill job's or decode beat's start at every stage is
known when it forms, so it crosses the whole pipeline then, booking every
stage's energy and KV sends, and takes two events at any pipeline depth:
stage 0 going free and the batch leaving the last stage. A batch key's stage
costs are built when its first batch forms, from per-stage memos of operator
costs: the projections and all-reduces per batch token count, and each
request's attention per (new tokens, context). Their latencies and energies
are added in op order, so the cost equals costing every op of ops.layer_ops
in turn. Handoff delay and energy are memoized per (stage, bytes). A stage
execution thus costs work in the group width, not the beat size.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import dataflow, ops
from .comm import MeshCoord, allreduce_cost, link_delay, link_energy, manhattan
from .compute import vpu_cycles
from .dram import effective_bandwidth
from .hwspec import Infeasible, ModelSpec, Role, SystemSpec
from .mapping import PdPlan, PhasePlan, pool_chiplet


class KvOverflow(Infeasible):
    """A single request's KV exceeds the whole decode KV budget."""


class PlanMismatch(Exception):
    """Plan and model disagree (layer coverage, group sizes, phase roles)."""


@dataclass(frozen=True)
class Request:
    rid: int
    arrival_s: float
    input_len: int
    output_len: int

    def __post_init__(self) -> None:
        if self.input_len < 1 or self.output_len < 1:
            raise ValueError("input_len and output_len must be >= 1")
        if not 0 <= self.arrival_s < math.inf:  # also false for NaN
            raise ValueError("arrival_s must be finite and >= 0")


# (mean input tokens, mean output tokens) per workload family
TRACE_MEANS: dict[str, tuple[int, int]] = {
    "code": (2071, 25),
    "reason": (1473, 1293),
    "longbench": (7108, 5),
}

_LEN_SIGMA = 0.5
ROOF_SLACK = 1.01  # achieved/roof ratio roofline_check still lets pass


def synth_trace(source: str, n: int, rate_rps: float, seed: int,
                mean_input: int | None = None,
                mean_output: int | None = None) -> tuple[Request, ...]:
    """Poisson arrivals at rate_rps; lognormal lengths with the family means.

    The lognormal takes mu = ln(mean) - sigma^2/2 so the distribution mean is
    exactly the family mean. source may be any TRACE_MEANS key, whose means
    are fixed, or "custom" with explicit means.
    """
    if source == "custom":
        if mean_input is None or mean_output is None:
            raise ValueError("custom trace needs mean_input and mean_output")
        mi, mo = mean_input, mean_output
        for name, mean in (("mean_input", mi), ("mean_output", mo)):
            if not mean >= 1:  # also true for NaN
                raise ValueError(f"{name} must be >= 1, got {mean}")
    else:
        try:
            mi, mo = TRACE_MEANS[source]
        except KeyError:
            raise ValueError(f"unknown trace source {source!r}") from None
        if mean_input is not None or mean_output is not None:
            raise ValueError(f"trace source {source!r} has fixed means; "
                             "mean_input and mean_output need source 'custom'")
    if n < 1 or not 0 < rate_rps < math.inf:  # also false for NaN
        raise ValueError("need n >= 1 and a finite rate_rps > 0")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, n))
    mu_i = math.log(mi) - _LEN_SIGMA ** 2 / 2
    mu_o = math.log(mo) - _LEN_SIGMA ** 2 / 2
    ins = rng.lognormal(mu_i, _LEN_SIGMA, n)
    outs = rng.lognormal(mu_o, _LEN_SIGMA, n)
    return tuple(
        Request(rid=i, arrival_s=float(arrivals[i]),
                input_len=max(1, round(float(ins[i]))),
                output_len=max(1, round(float(outs[i]))))
        for i in range(n)
    )


_TRACE_COLUMNS = {"rid": int, "arrival_s": float, "input_len": int, "output_len": int}


def load_trace_csv(path: str) -> tuple[Request, ...]:
    """Requests from a CSV whose header names exactly dump_trace_csv's
    columns. Raises ValueError naming a missing, unknown or repeated column,
    the line and cells of a bad row, the line of a row with cells beyond the
    header or of a repeated rid, or when the file holds no request."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        cols = reader.fieldnames or []
        missing = [c for c in _TRACE_COLUMNS if c not in cols]
        extra = [c for i, c in enumerate(cols) if c not in _TRACE_COLUMNS or c in cols[:i]]
        if missing or extra:
            raise ValueError(f"missing columns {missing}, unknown or repeated {extra}")
        rows = [(reader.line_num, row) for row in reader]  # blank lines are skipped
    if not rows:
        raise ValueError("no requests")
    lines: dict[int, int] = {}  # rid -> the line that holds it
    trace = []
    for line, row in rows:
        if None in row:  # DictReader files cells beyond the header under None
            raise ValueError(f"line {line}: {len(row[None])} cell(s) beyond the header")
        try:
            req = Request(**{c: kind(row[c]) for c, kind in _TRACE_COLUMNS.items()})
        except (TypeError, ValueError) as e:  # TypeError: a short row's missing cell
            cells = ", ".join(f"{c}={row[c]}" for c in _TRACE_COLUMNS)
            raise ValueError(f"line {line} ({cells}): {e}") from None
        if req.rid in lines:
            raise ValueError(f"line {line}: rid {req.rid} repeats line {lines[req.rid]}")
        lines[req.rid] = line
        trace.append(req)
    return tuple(trace)


def dump_trace_csv(trace: tuple[Request, ...], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rid", "arrival_s", "input_len", "output_len"])
        for r in trace:
            w.writerow([r.rid, repr(r.arrival_s), r.input_len, r.output_len])


@dataclass(frozen=True)
class SimConfig:
    max_prefill_batch: int = 4
    max_decode_batch: int = 64
    len_bucket: int = 64
    continuous_batching: bool = True
    kv_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_prefill_batch < 1 or self.max_decode_batch < 1:
            raise ValueError("batch limits must be >= 1")
        if self.len_bucket < 1:
            raise ValueError("len_bucket must be >= 1")


@dataclass(frozen=True)
class OpRecord:
    """One executed operator on one PE shard (one layer's worth)."""

    phase: Role
    kind: ops.OpKind  # GEMM or VPU
    tag: str
    flops: int
    dram_bytes: int
    latency_s: float


@dataclass(frozen=True)
class RequestMetrics:
    rid: int
    arrival_s: float
    ttft_s: float
    tbt_mean_s: float
    e2e_s: float
    out_tokens: int
    kv_wait_s: float


@dataclass(frozen=True)
class ServingMetrics:
    requests: tuple[RequestMetrics, ...]
    makespan_s: float
    total_tokens: int
    throughput_tok_s: float
    energy_j: float
    tokens_per_joule: float
    kv_overflow: bool
    op_records: tuple[OpRecord, ...]  # each distinct record once, first built first
    chip_compute_j: dict[tuple[int, int], float]  # dynamic energy per chiplet
    chip_dram_j: dict[tuple[int, int], float]
    # the engine's work, left out of summary_dict: events run, stage executions
    events: int
    stage_executions: int

    def ttft_percentile(self, p: float) -> float:
        return _percentile([r.ttft_s for r in self.requests], p)

    def tbt_percentile(self, p: float) -> float:
        vals = [r.tbt_mean_s for r in self.requests if r.out_tokens > 1]
        return _percentile(vals, p) if vals else 0.0

    def e2e_percentile(self, p: float) -> float:
        return _percentile([r.e2e_s for r in self.requests], p)


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; p in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty list")
    s = sorted(values)
    k = max(0, min(len(s) - 1, math.ceil(p / 100.0 * len(s)) - 1))
    return s[k]


def summary_dict(m: ServingMetrics) -> dict:
    """Flat scalar summary, for JSON output."""
    has_decode = any(r.out_tokens > 1 for r in m.requests)
    return {
        "requests": len(m.requests),
        "total_tokens": m.total_tokens,
        "makespan_s": m.makespan_s,
        "throughput_tok_s": m.throughput_tok_s,
        "energy_j": m.energy_j,
        "tokens_per_joule": m.tokens_per_joule,
        "kv_overflow": m.kv_overflow,
        "ttft_p50_s": m.ttft_percentile(50) if m.requests else 0.0,
        "ttft_p95_s": m.ttft_percentile(95) if m.requests else 0.0,
        "tbt_p50_s": m.tbt_percentile(50) if has_decode else 0.0,
        "tbt_p95_s": m.tbt_percentile(95) if has_decode else 0.0,
        "e2e_p95_s": m.e2e_percentile(95) if m.requests else 0.0,
    }


def write_request_csv(m: ServingMetrics, path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rid", "arrival_s", "ttft_s", "tbt_mean_s", "e2e_s",
                    "out_tokens", "kv_wait_s"])
        for r in m.requests:
            w.writerow([r.rid, repr(r.arrival_s), repr(r.ttft_s),
                        repr(r.tbt_mean_s), repr(r.e2e_s), r.out_tokens,
                        repr(r.kv_wait_s)])


# --- internal engine ------------------------------------------------------------


@dataclass(frozen=True)
class _StageCost:
    """Cost of one pipeline stage executing one batch, per layer and total."""

    duration_s: float
    layer_s: float
    qkv_offset_s: float  # into a layer, when its KV pages exist
    shard_compute_j: float  # per member PE, whole stage
    shard_dram_j: float
    shard_j: float  # shard_compute_j + shard_dram_j
    comm_j: float  # collectives, whole group, whole stage


# One operator group's per-op costs in op order, each (latency, compute J,
# DRAM J, collective J, is the qkv projection).
_OpGroup = tuple[tuple[float, float, float, float, bool], ...]


@dataclass
class _ReqState:
    """One request's progress. Prefill is done once ttft is set; the request
    is done once, in addition, no token is left."""

    req: Request
    kv_bytes: int  # the request's KV footprint in the decode pool
    ttft: float | None = None
    last_tok: float | None = None
    gap_sum: float = 0.0  # decode gaps, added in token order
    ctx: int = 0
    left: int = 0
    in_flight: bool = False
    outstanding_kv: int = 0
    ready_time: float = 0.0
    admit_time: float = 0.0


def _bucket(x: int, b: int) -> int:
    return max(b, math.ceil(x / b) * b)


def _chips_temp(chips: set[tuple[int, int]],
                temps: float | Mapping[tuple[int, int], float]) -> float:
    if isinstance(temps, Mapping):
        return max(temps[c] for c in chips)
    return float(temps)


class _PhaseCtx:
    """One phase's pipeline: its stages' members, centers, temps and chiplet;
    whether stage 0 holds a batch and when each stage finishes the last batch
    booked on it; and the memos of its stage costs, operator groups and
    activation handoffs."""

    def __init__(self, spec: SystemSpec, plan: PhasePlan,
                 temps: float | Mapping[tuple[int, int], float]):
        self.plan = plan
        self.phase = plan.phase
        self.pp = plan.pp
        self.members = [list(m) for m in plan.stage_members]
        self.member_chips = [tuple(m.chip for m in mem) for mem in self.members]
        self.centers = list(plan.stage_centers)
        self.chiplet = pool_chiplet(spec, plan.phase)
        self.stage_temp = [_chips_temp(set(chips), temps) for chips in self.member_chips]
        self.bounds = list(plan.layer_bounds)
        # activation handoff hop counts between consecutive stage centers
        self.hop = [
            manhattan(self.centers[s], self.centers[s + 1], spec)
            for s in range(len(self.centers) - 1)
        ]
        self.busy = False  # from a batch's entry until its stage-0-free event
        self.free = [0.0] * plan.pp
        # batch key -> each stage's cost
        self.costs: dict[tuple[tuple[int, int], ...], list[_StageCost]] = {}
        # per stage: token count -> (projections before, after attention)
        self.proj: list[dict[int, tuple[_OpGroup, _OpGroup]]] = [{} for _ in range(plan.pp)]
        # per stage: (new tokens, context) -> one request's attention
        self.attn: list[dict[tuple[int, int], _OpGroup]] = [{} for _ in range(plan.pp)]
        # (stage, bytes) -> (delay, energy) of the handoff to the next stage
        self.handoffs: dict[tuple[int, int], tuple[float, float]] = {}


class _Sim:
    def __init__(self, spec: SystemSpec, model: ModelSpec, plan: PdPlan,
                 trace: tuple[Request, ...], cfg: SimConfig,
                 temps: float | Mapping[tuple[int, int], float]):
        _check_plan(plan, model)
        self.spec = spec
        self.model = model
        self.cfg = cfg
        self.pre = _PhaseCtx(spec, plan.prefill, temps)
        self.dec = _PhaseCtx(spec, plan.decode, temps)
        # decode step t attends over prompt + t generated tokens
        kv_per_token = model.kv_bytes_per_token()
        self.states = [_ReqState(req=r, kv_bytes=(r.input_len + r.output_len) * kv_per_token,
                                 ctx=r.input_len + 1, left=r.output_len - 1)
                       for r in sorted(trace, key=lambda r: (r.arrival_s, r.rid))]
        self.kv_dest = plan.kv_dest
        self.kv_shard_layer_bytes = (
            2 * ops.kv_heads_per_shard(model, plan.prefill.tp)
            * model.d_head * model.dtype_bytes)
        self.act_bytes_per_token = model.d_model * model.dtype_bytes

        self.now = 0.0
        self._seq = itertools.count()
        self._ev: list[tuple[float, int, Callable[..., None], tuple]] = []
        self.events = 0
        self.stage_executions = 0
        self.pre_q: deque[_ReqState] = deque()
        self.pool: list[_ReqState] = []
        self.kv_wait_q: deque[_ReqState] = deque()
        self.kv_used = 0
        self.kv_overflow = False
        self.static_batch: list[_ReqState] | None = None
        self.dec_beats_active = 0
        self.bridge_free: dict[tuple[tuple[int, int], tuple[int, int]], float] = {}

        self.records: dict[OpRecord, None] = {}  # distinct, in build order
        self.dyn_j = 0.0
        self.chip_compute_j: dict[tuple[int, int], float] = defaultdict(float)
        self.chip_dram_j: dict[tuple[int, int], float] = defaultdict(float)
        self.comm_energy = 0.0
        self.last_event_t = 0.0

    # -- engine --

    def at(self, t: float, fn: Callable[..., None], *args) -> None:
        heapq.heappush(self._ev, (t, next(self._seq), fn, args))

    def run(self) -> None:
        for st in self.states:
            self.at(st.req.arrival_s, self._arrive, st)
        ev = self._ev
        pop = heapq.heappop
        while ev:
            self.now, _, fn, args = pop(ev)
            fn(*args)
        self.last_event_t = self.now
        self.events = next(self._seq)

    # -- costs --

    def _op_group(self, ctx: _PhaseCtx, s: int, op_list: list[ops.OpSpec]) -> _OpGroup:
        """Each operator's latency and energy on one of stage s's PEs. The
        records of its GEMM and VPU ops go into the run's distinct records."""
        chiplet = ctx.chiplet
        costs = []
        for op in op_list:
            comp_j = dram_j = comm_j = 0.0
            if op.kind is ops.OpKind.GEMM:
                res = dataflow.cached_search(op.shape, chiplet.pe, chiplet.dram,
                                             ctx.stage_temp[s], clock_hz=chiplet.clock_hz,
                                             dtype_bytes=self.model.dtype_bytes)
                dt = res.cost.latency_s
                comp_j = res.cost.compute.energy_j
                dram_j = res.cost.energy_j - res.cost.compute.energy_j
                self.records[OpRecord(ctx.phase, op.kind, op.tag, op.shape.flops,
                                      res.cost.dram_bytes, dt)] = None
            elif op.kind is ops.OpKind.VPU:
                dt = vpu_cycles(op.elements, chiplet.pe) / chiplet.clock_hz
                comp_j = op.elements * chiplet.pe.pj_per_flop * 1e-12
                self.records[OpRecord(ctx.phase, op.kind, op.tag, op.elements, 0, dt)] = None
            elif ctx.plan.tp > 1:  # all-reduce on the stage's group
                cc = allreduce_cost(ctx.members[s], ctx.centers[s], op.msg_bytes, self.spec)
                dt = cc.latency_s
                comm_j = cc.energy_j
            else:
                dt = 0.0
            costs.append((dt, comp_j, dram_j, comm_j, op.tag == "qkv"))
        return tuple(costs)

    def _stage_cost(self, ctx: _PhaseCtx, s: int,
                    key: tuple[tuple[int, int], ...]) -> _StageCost:
        """Stage s's cost for a batch key. The layer's ops run in
        ops.layer_ops order: projections before attention, each request's
        attention, projections after it. Their costs are added one by one in
        that order; an op with no energy of some kind adds 0.0, which leaves
        the sum unchanged."""
        m_tokens = sum(nt for nt, _ in key)
        proj = ctx.proj[s].get(m_tokens)
        if proj is None:
            pre_ops, post_ops = ops.proj_ops(self.model, ctx.plan.tp, m_tokens)
            proj = ctx.proj[s][m_tokens] = (self._op_group(ctx, s, pre_ops),
                                             self._op_group(ctx, s, post_ops))
        attn_memo = ctx.attn[s]
        groups = [proj[0]]
        for nt, c in key:
            g = attn_memo.get((nt, c))
            if g is None:
                g = attn_memo[(nt, c)] = self._op_group(
                    ctx, s, ops.attn_ops(self.model, ctx.plan.tp, nt, c))
            groups.append(g)
        groups.append(proj[1])
        t_layer = qkv_off = comp_j = dram_j = comm_j = 0.0
        for costs in groups:
            for dt, c_j, d_j, x_j, is_qkv in costs:
                t_layer += dt
                comp_j += c_j
                dram_j += d_j
                comm_j += x_j
                if is_qkv:
                    qkv_off = t_layer
        lo, hi = ctx.bounds[s]
        n_layers = hi - lo
        shard_compute_j = comp_j * n_layers
        shard_dram_j = dram_j * n_layers
        return _StageCost(
            duration_s=t_layer * n_layers,
            layer_s=t_layer,
            qkv_offset_s=qkv_off,
            shard_compute_j=shard_compute_j,
            shard_dram_j=shard_dram_j,
            shard_j=shard_compute_j + shard_dram_j,
            comm_j=comm_j * n_layers,
        )

    def _run_stage(self, ctx: _PhaseCtx, s: int, cost: _StageCost) -> None:
        """Book one stage execution's energy: each member PE's shard into the
        run's dynamic total and its chiplet's totals, in member order."""
        self.stage_executions += 1
        compute_j, dram_j, shard_j = cost.shard_compute_j, cost.shard_dram_j, cost.shard_j
        chip_compute_j, chip_dram_j = self.chip_compute_j, self.chip_dram_j
        dyn_j = self.dyn_j
        for chip in ctx.member_chips[s]:
            dyn_j += shard_j
            chip_compute_j[chip] += compute_j
            chip_dram_j[chip] += dram_j
        self.dyn_j = dyn_j
        self.comm_energy += cost.comm_j

    def _handoff(self, ctx: _PhaseCtx, s: int, act_bytes: int) -> float:
        got = ctx.handoffs.get((s, act_bytes))
        if got is None:
            noc, nop = ctx.hop[s]
            got = ctx.handoffs[(s, act_bytes)] = (
                link_delay(act_bytes, noc, nop, self.spec),
                link_energy(act_bytes, noc, nop, self.spec))
        self.comm_energy += got[1]
        return got[0]

    # -- the stage pipeline, the same for both phases --
    # A batch enters stage 0 only while stage 0 holds none (_try_prefill_admit
    # and _try_decode_start check ctx.busy). At stage s it starts at the later
    # of its arrival and ctx.free[s], and it arrives at stage s + 1 after its
    # stage time and the handoff.

    def _traverse(self, ctx: _PhaseCtx, states: list[_ReqState], rows: int,
                  key: tuple[tuple[int, int], ...]) -> None:
        """Enter a batch of `rows` handoff rows into stage 0 now and cross
        every stage: book each stage's energy, send prefill KV from each
        stage's start, and schedule stage 0 going free and the batch leaving
        the last stage."""
        costs = ctx.costs.get(key)
        if costs is None:
            costs = ctx.costs[key] = [self._stage_cost(ctx, s, key) for s in range(ctx.pp)]
        ctx.busy = True
        act_bytes = rows * self.act_bytes_per_token
        free = ctx.free
        t = self.now
        for s, cost in enumerate(costs):
            self._run_stage(ctx, s, cost)
            start = max(t, free[s])
            if ctx is self.pre:
                self._schedule_kv_sends(s, states, cost, start)
            t = free[s] = start + cost.duration_s
            if s + 1 < ctx.pp:
                t += self._handoff(ctx, s, act_bytes)
        self.at(free[0], self._free_stage0, ctx)
        self.at(t, self._finish_prefill if ctx is self.pre else self._finish_beat, states)

    def _free_stage0(self, ctx: _PhaseCtx) -> None:
        """Admit the next batch. A one-stage batch leaves at this instant, and
        its finish admits once the batch's requests have moved on."""
        ctx.busy = False
        if ctx.pp > 1 and ctx is self.pre:
            self._try_prefill_admit()
        elif ctx.pp > 1:
            self._try_decode_start()

    # -- prefill --

    def _arrive(self, st: _ReqState) -> None:
        self.pre_q.append(st)
        self._try_prefill_admit()

    def _try_prefill_admit(self) -> None:
        if self.pre.busy or not self.pre_q:
            return
        states = [self.pre_q.popleft()
                  for _ in range(min(self.cfg.max_prefill_batch, len(self.pre_q)))]
        b = self.cfg.len_bucket
        key = tuple(sorted(
            (_bucket(st.req.input_len, b), _bucket(st.req.input_len, b))
            for st in states))
        rows = sum(st.req.input_len for st in states)
        self._traverse(self.pre, states, rows, key)

    def _finish_prefill(self, states: list[_ReqState]) -> None:
        for st in states:
            st.ttft = self.now - st.req.arrival_s
            st.last_tok = self.now
            if st.req.output_len > 1 and st.outstanding_kv == 0:
                self._mark_ready(st)
        self._try_prefill_admit()

    def _schedule_kv_sends(self, s: int, states: list[_ReqState],
                           cost: _StageCost, start: float) -> None:
        """Queue the KV pages of stage s, which starts the batch at `start`,
        onto the chiplet-pair bridges to their `kv_dest` PEs, layer by layer
        as QKV completes inside the stage."""
        for src, dests in zip(self.pre.members[s], self.kv_dest[s]):
            for st in states:
                if st.req.output_len == 1:
                    continue
                per_layer = st.req.input_len * self.kv_shard_layer_bytes
                for k, dst in enumerate(dests):
                    ready = start + k * cost.layer_s + cost.qkv_offset_s
                    st.outstanding_kv += 1
                    self.at(ready, self._bridge_send, st, src, dst, per_layer)

    def _bridge_send(self, st: _ReqState, src: MeshCoord, dst: MeshCoord,
                     nbytes: int) -> None:
        key = (src.chip, dst.chip)
        noc, nop = manhattan(src, dst, self.spec)
        lat = link_delay(nbytes, noc, nop, self.spec)
        self.comm_energy += link_energy(nbytes, noc, nop, self.spec)
        start = max(self.now, self.bridge_free.get(key, 0.0))
        self.bridge_free[key] = start + lat
        self.at(start + lat, self._kv_arrived, st)

    def _kv_arrived(self, st: _ReqState) -> None:
        st.outstanding_kv -= 1
        if st.outstanding_kv == 0 and st.ttft is not None:
            self._mark_ready(st)

    # -- decode --

    def _mark_ready(self, st: _ReqState) -> None:
        st.ready_time = self.now
        budget = self.cfg.kv_budget_bytes
        if budget is not None and st.kv_bytes > budget:
            raise KvOverflow(
                f"request {st.req.rid} needs {st.kv_bytes} B KV, budget {budget} B")
        if budget is not None and self.kv_used + st.kv_bytes > budget:
            self.kv_overflow = True
            self.kv_wait_q.append(st)
            return
        self._admit(st)

    def _admit(self, st: _ReqState) -> None:
        self.kv_used += st.kv_bytes
        st.admit_time = self.now
        self.pool.append(st)
        self._try_decode_start()

    def _eligible(self) -> list[_ReqState]:
        if self.cfg.continuous_batching:
            src = self.pool
        else:
            if self.static_batch is None and self.pool:
                self.static_batch = self.pool[:self.cfg.max_decode_batch]
            src = self.static_batch or []
        out = [st for st in src if not st.in_flight and st.left > 0]
        return out[:self.cfg.max_decode_batch]

    def _try_decode_start(self) -> None:
        if self.dec.busy:
            return
        if not self.cfg.continuous_batching and self.dec_beats_active > 0:
            return
        beat = self._eligible()
        if not beat:
            return
        for st in beat:
            st.in_flight = True
        self.dec_beats_active += 1
        b = self.cfg.len_bucket
        key = tuple(sorted((1, _bucket(st.ctx, b)) for st in beat))
        self._traverse(self.dec, beat, len(beat), key)

    def _finish_beat(self, beat: list[_ReqState]) -> None:
        self.dec_beats_active -= 1
        for st in beat:
            st.gap_sum += self.now - st.last_tok
            st.last_tok = self.now
            st.left -= 1
            st.ctx += 1
            st.in_flight = False
            if st.left == 0:
                self._retire(st)
        if self.static_batch is not None and all(
                st.left == 0 for st in self.static_batch):
            self.static_batch = None
        self._try_decode_start()

    def _retire(self, st: _ReqState) -> None:
        self.pool.remove(st)
        self.kv_used -= st.kv_bytes
        while self.kv_wait_q:
            nxt = self.kv_wait_q[0]
            if self.kv_used + nxt.kv_bytes > self.cfg.kv_budget_bytes:
                break
            self.kv_wait_q.popleft()
            self._admit(nxt)

    # -- results --

    def metrics(self, spec: SystemSpec) -> ServingMetrics:
        unfinished = [st.req.rid for st in self.states
                      if st.ttft is None or st.left > 0]
        if unfinished:
            raise PlanMismatch(f"requests never completed: {unfinished[:5]}")
        reqs = []
        for st in self.states:
            n_gaps = st.req.output_len - 1
            reqs.append(RequestMetrics(
                rid=st.req.rid, arrival_s=st.req.arrival_s, ttft_s=st.ttft,
                tbt_mean_s=st.gap_sum / n_gaps if n_gaps else 0.0,
                e2e_s=st.ttft + st.gap_sum,
                out_tokens=st.req.output_len,
                kv_wait_s=(st.admit_time - st.ready_time
                           if st.req.output_len > 1 else 0.0)))
        makespan = self.last_event_t
        total_tokens = sum(r.out_tokens for r in reqs)
        static_w = 0.0
        for coord in spec.placement:
            c = spec.chiplet_at(coord)
            static_w += c.n_pe * c.power.leak_base_w_per_pe
            static_w += c.dram.n_layer * (c.power.dram_static_w_per_layer
                                          + c.power.refresh_w_per_layer)
        energy = self.dyn_j + self.comm_energy + static_w * makespan
        return ServingMetrics(
            requests=tuple(reqs),
            makespan_s=makespan,
            total_tokens=total_tokens,
            throughput_tok_s=total_tokens / makespan if makespan > 0 else 0.0,
            energy_j=energy,
            tokens_per_joule=total_tokens / energy if energy > 0 else 0.0,
            kv_overflow=self.kv_overflow,
            op_records=tuple(self.records),
            chip_compute_j=dict(self.chip_compute_j),
            chip_dram_j=dict(self.chip_dram_j),
            events=self.events,
            stage_executions=self.stage_executions,
        )


def _check_plan(plan: PdPlan, model: ModelSpec) -> None:
    for phase_plan, phase in ((plan.prefill, Role.PREFILL), (plan.decode, Role.DECODE)):
        if phase_plan.phase is not phase:
            raise PlanMismatch(f"{phase.value} plan carries {phase_plan.phase}")
        if phase_plan.layer_bounds[-1][1] != model.n_layers:
            raise PlanMismatch(
                f"{phase.value} plan covers {phase_plan.layer_bounds[-1][1]} "
                f"layers, model has {model.n_layers}")
        for s, members in enumerate(phase_plan.stage_members):
            if len(members) != phase_plan.tp:
                raise PlanMismatch(
                    f"{phase.value} stage {s} has {len(members)} PEs, tp is "
                    f"{phase_plan.tp}")


def simulate(spec: SystemSpec, model: ModelSpec, plan: PdPlan,
             trace: tuple[Request, ...], cfg: SimConfig = SimConfig(),
             temps: float | Mapping[tuple[int, int], float] = 65.0) -> ServingMetrics:
    """Run the trace through the plan and return per-request plus aggregate
    metrics. temps is a uniform value or per-chiplet map; a stage spanning
    several chiplets sees the hottest one."""
    sim = _Sim(spec, model, plan, trace, cfg, temps)
    sim.run()
    return sim.metrics(spec)


def roofline_check(metrics: ServingMetrics, spec: SystemSpec, plan: PdPlan,
                   temps: float | Mapping[tuple[int, int], float] = 65.0) -> list[str]:
    """Operators whose achieved per-PE rate beats ROOF_SLACK * min(compute, AI * bw).

    Audits metrics.op_records, one per distinct operator cost. Returns
    human-readable violation strings; empty means every operator sits on or
    under the roof.
    """
    out = []
    by_phase = {}
    for phase_plan in (plan.prefill, plan.decode):
        chips = {m.chip for s in phase_plan.stage_members for m in s}
        chiplet = pool_chiplet(spec, phase_plan.phase)
        temp = _chips_temp(chips, temps)
        pe = chiplet.pe
        peak = 2.0 * pe.sa_rows * pe.sa_cols * pe.n_core * chiplet.clock_hz
        bw = effective_bandwidth(chiplet.dram, temp) \
            * pe.n_mc / chiplet.dram.channels
        vpu_peak = pe.vector_regs * chiplet.clock_hz
        by_phase[phase_plan.phase] = (peak, bw, vpu_peak)
    for i, rec in enumerate(metrics.op_records):
        if rec.latency_s <= 0.0:
            continue
        peak, bw, vpu_peak = by_phase[rec.phase]
        achieved = rec.flops / rec.latency_s
        if rec.kind is ops.OpKind.VPU:
            roof = vpu_peak
        elif rec.dram_bytes > 0:
            ai = rec.flops / rec.dram_bytes
            roof = min(peak, ai * bw)
        else:
            roof = peak
        if achieved > roof * ROOF_SLACK:
            out.append(
                f"op {i} {rec.phase.value}/{rec.tag}: {achieved:.3e} flop/s "
                f"exceeds roof {roof:.3e}")
    return out
