"""Transformer operator shapes under tensor parallelism.

One decoder block, Megatron-style sharding over tp PEs: qkv and ffn-up are
column-sharded, o-proj and ffn-down row-sharded, attention heads split across
shards. Two all-reduces per layer (after o-proj and after ffn-down). The VPU
handles norms, residuals, softmax, and activations; its element counts are
per shard.

These shapes are the single source of truth for layer cost estimation and for
the serving simulator, so hand-composed oracles and the event engine agree.
A phase is a `hwspec.Role`: each pool runs the phase it is named for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .compute import GemmShape
from .hwspec import ModelSpec, Role


class OpKind(Enum):
    GEMM = "gemm"
    VPU = "vpu"
    ALLREDUCE = "allreduce"


Phase = Role


@dataclass(frozen=True)
class OpSpec:
    kind: OpKind
    tag: str
    shape: GemmShape | None = None  # GEMM only
    elements: int = 0               # VPU only
    msg_bytes: int = 0              # ALLREDUCE only


def heads_per_shard(model: ModelSpec, tp: int) -> int:
    return math.ceil(model.n_heads / tp)


def kv_heads_per_shard(model: ModelSpec, tp: int) -> int:
    return math.ceil(model.n_kv_heads / tp)


def proj_ops(model: ModelSpec, tp: int, m_tokens: int) -> tuple[list[OpSpec], list[OpSpec]]:
    """Pre-attention and post-attention projection/FFN ops for a token batch.

    Returns (ops before per-request attention, ops after it).
    """
    d = model.d_model
    qkv_out = heads_per_shard(model, tp) * model.d_head \
        + 2 * kv_heads_per_shard(model, tp) * model.d_head
    ffn_shard = math.ceil(model.d_ffn / tp)
    d_in_shard = math.ceil(d / tp)
    ar_bytes = m_tokens * d * model.dtype_bytes
    pre = [
        OpSpec(OpKind.VPU, "norm1", elements=m_tokens * d_in_shard),
        OpSpec(OpKind.GEMM, "qkv", shape=GemmShape(m_tokens, qkv_out, d)),
    ]
    post = [
        OpSpec(OpKind.GEMM, "o_proj",
               shape=GemmShape(m_tokens, d, heads_per_shard(model, tp) * model.d_head)),
        OpSpec(OpKind.ALLREDUCE, "ar_attn", msg_bytes=ar_bytes),
        OpSpec(OpKind.VPU, "norm2", elements=2 * m_tokens * d_in_shard),
        OpSpec(OpKind.GEMM, "ffn_up", shape=GemmShape(m_tokens, ffn_shard, d)),
        OpSpec(OpKind.VPU, "act", elements=m_tokens * ffn_shard),
        OpSpec(OpKind.GEMM, "ffn_down", shape=GemmShape(m_tokens, d, ffn_shard)),
        OpSpec(OpKind.ALLREDUCE, "ar_ffn", msg_bytes=ar_bytes),
    ]
    return pre, post


def attn_ops(model: ModelSpec, tp: int, new_tokens: int, ctx_len: int) -> list[OpSpec]:
    """Attention ops for one request: scores, softmax, weighted sum.

    Prefill runs new_tokens x ctx_len score matrices per head; decode runs one
    row (new_tokens == 1) against the full context. KV heads fold into the
    score matrix's n dimension; query heads sharing a KV head stack as extra
    rows against that one K/V matrix, so the B-side traffic stops shrinking
    once a shard is down to a single KV head (grouped attention reads the
    same cache however many query heads consume it).
    """
    h = heads_per_shard(model, tp)
    kv = kv_heads_per_shard(model, tp)
    q_per_kv = math.ceil(h / kv)
    m = new_tokens * q_per_kv
    return [
        OpSpec(OpKind.GEMM, "scores", shape=GemmShape(m, ctx_len * kv, model.d_head)),
        OpSpec(OpKind.VPU, "softmax", elements=new_tokens * ctx_len * h),
        OpSpec(OpKind.GEMM, "attend", shape=GemmShape(m, model.d_head * kv, ctx_len)),
    ]


def layer_ops(model: ModelSpec, tp: int, phase: Role,
              batch: list[tuple[int, int]]) -> list[OpSpec]:
    """All ops of one decoder block for a batch of (new_tokens, ctx_len)
    requests: batched projections, per-request attention."""
    m_tokens = sum(nt for nt, _ in batch)
    pre, post = proj_ops(model, tp, m_tokens)
    ops = list(pre)
    for nt, ctx in batch:
        ops.extend(attn_ops(model, tp, nt, ctx))
    ops.extend(post)
    return ops
