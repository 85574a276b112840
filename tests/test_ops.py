"""Hand-checked operator shapes for one decoder block."""

from __future__ import annotations

from conftest import make_model
from lamosim import ops
from lamosim.compute import GemmShape


def test_proj_shapes_tp1():
    m = make_model()  # d=8, heads=2, kv=2, d_head=4, ffn=16
    pre, post = ops.proj_ops(m, tp=1, m_tokens=3)
    by_tag = {o.tag: o for o in pre + post}
    assert by_tag["qkv"].shape == GemmShape(3, 2 * 4 + 2 * 2 * 4, 8)
    assert by_tag["o_proj"].shape == GemmShape(3, 8, 8)
    assert by_tag["ffn_up"].shape == GemmShape(3, 16, 8)
    assert by_tag["ffn_down"].shape == GemmShape(3, 8, 16)
    assert by_tag["ar_attn"].msg_bytes == 3 * 8 * 2
    assert by_tag["norm1"].elements == 3 * 8


def test_proj_shapes_tp2_shards_n_dims():
    m = make_model()
    pre, post = ops.proj_ops(m, tp=2, m_tokens=1)
    by_tag = {o.tag: o for o in pre + post}
    # 1 head + 2 kv heads per shard, each 4 wide
    assert by_tag["qkv"].shape == GemmShape(1, 12, 8)
    assert by_tag["o_proj"].shape == GemmShape(1, 8, 4)
    assert by_tag["ffn_up"].shape == GemmShape(1, 8, 8)
    assert by_tag["ffn_down"].shape == GemmShape(1, 8, 8)
    # all-reduce message is the full (unsharded) activation
    assert by_tag["ar_attn"].msg_bytes == 1 * 8 * 2


def test_attn_shapes_fold_heads():
    m = make_model()
    got = ops.attn_ops(m, tp=1, new_tokens=1, ctx_len=10)
    assert got[0].shape == GemmShape(1, 10 * 2, 4)
    assert got[1].elements == 1 * 10 * 2
    assert got[2].shape == GemmShape(1, 4 * 2, 10)


def test_layer_ops_batches_projections():
    m = make_model()
    batch = [(1, 5), (1, 9)]
    got = ops.layer_ops(m, 1, ops.Phase.DECODE, batch)
    qkv = [o for o in got if o.tag == "qkv"]
    scores = [o for o in got if o.tag == "scores"]
    assert len(qkv) == 1 and qkv[0].shape.m == 2
    assert len(scores) == 2
    assert {s.shape.n for s in scores} == {5 * 2, 9 * 2}


def test_layer_flops_match_closed_form_tp1():
    m = make_model()
    got = ops.layer_ops(m, 1, ops.Phase.PREFILL, [(4, 4)])
    gemm_flops = sum(o.shape.flops for o in got if o.kind is ops.OpKind.GEMM)
    # 2*m*(proj params) + two attention GEMMs of 2*m*ctx*d_head*heads each
    want = 2 * 4 * m.weights_per_layer() + 2 * (2 * 4 * 4 * 4 * 2)
    assert gemm_flops == want
