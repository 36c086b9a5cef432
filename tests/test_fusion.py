import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from turbfuse import tensor as T
from turbfuse.errors import ConfigError, ShapeError
from turbfuse.fusion import (
    ATTENTION_ORDERS,
    BLOCKS,
    ROLE_VARIANTS,
    FusionConfig,
    FusionParams,
    Projection,
    attend,
    feed_forward,
    fuse,
    residual_block,
    zero_fusion_output,
)
from turbfuse.optim import finite_diff_check
from turbfuse.tensor import Tensor


def identity_projection(d, dtype=np.float64):
    eye = np.eye(d)
    zero = np.zeros(d)
    mk = lambda a: Tensor(a.copy(), dtype=dtype)
    return Projection(mk(eye), mk(eye), mk(zero), mk(zero))


def full_attention(rng, d, h=2, proj=None):
    """All eight weights of a multi-head attention block.

    Query/key weights and biases are random; value/output ones come from
    ``proj`` when given, else they are random too.
    """
    w = lambda: Tensor(rng.standard_normal((d, d)) / np.sqrt(d), dtype=np.float64)
    b = lambda: Tensor(0.5 * rng.standard_normal(d), dtype=np.float64)
    p = SimpleNamespace(n_heads=h, d_model=d, wq=w(), wk=w(), bq=b(), bk=b())
    proj = proj or Projection(w(), w(), b(), b())
    p.wv, p.wo, p.bv, p.bo = proj.wv, proj.wo, proj.bv, proj.bo
    return p


def mha_loop_oracle(q_in, k_in, v_in, p):
    """Independent per-head loop recomputation of multi-head attention."""
    d = p.d_model
    h = p.n_heads
    dh = d // h
    q = q_in @ p.wq.data + p.bq.data
    k = k_in @ p.wk.data + p.bk.data
    v = v_in @ p.wv.data + p.bv.data
    bsz, sq, _ = q.shape
    sk = k.shape[1]
    ctx = np.zeros((bsz, sq, d))
    for b in range(bsz):
        for head in range(h):
            sl = slice(head * dh, (head + 1) * dh)
            scores = q[b, :, sl] @ k[b, :, sl].T / np.sqrt(dh)
            for i in range(sq):
                row = scores[i] - scores[i].max()
                w = np.exp(row)
                w /= w.sum()
                for j in range(sk):
                    ctx[b, i, sl] += w[j] * v[b, j, sl]
    return ctx @ p.wo.data + p.bo.data


class TestMultiHeadAttention:
    def test_identity_projection_returns_value(self):
        rng = np.random.default_rng(0)
        v = Tensor(rng.standard_normal((3, 1, 6)), dtype=np.float64)
        out = attend(v, identity_projection(6))
        np.testing.assert_allclose(out.data, v.data, rtol=1e-12)

    def test_single_key_output_independent_of_query(self):
        """Softmax attention over one key equals ``attend`` for any query,
        query/key weights and head count."""
        rng = np.random.default_rng(1)
        proj = full_attention(rng, 8)
        proj = Projection(proj.wv, proj.wo, proj.bv, proj.bo)
        kv = rng.standard_normal((2, 1, 8))
        expect = attend(Tensor(kv, dtype=np.float64), proj).data
        for h in (1, 2, 4, 8):
            for _ in range(2):
                full = full_attention(rng, 8, h=h, proj=proj)
                q = rng.standard_normal((2, 1, 8))
                np.testing.assert_allclose(mha_loop_oracle(q, kv, kv, full), expect, rtol=1e-12, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attend(Tensor(np.zeros((1, 1, 4))), identity_projection(8, dtype=np.float32))


def small_setup(rng, d=8, block_norm=False, **kw):
    cfg = FusionConfig(d_model=d, ffn_hidden=2 * d, block_norm=block_norm, **kw)
    return FusionParams.init(rng, cfg, dtype=np.float64)


class TestBlocks:
    def test_cross_block_zero_query_identity_projections(self):
        rng = np.random.default_rng(4)
        params = small_setup(rng, d=6)
        params.blocks["ca2"] = identity_projection(6)
        x_kv = Tensor(rng.standard_normal((2, 1, 6)), dtype=np.float64)
        x_q = Tensor(np.zeros((2, 1, 6)), dtype=np.float64)
        out = residual_block(x_q, x_kv, params, "ca2")
        np.testing.assert_allclose(out.data, x_kv.data, rtol=1e-12)

    def test_cross_block_residual_identity(self):
        rng = np.random.default_rng(5)
        params = small_setup(rng)
        params.blocks["ca2"].wo.data[...] = 0.0
        x_q = Tensor(rng.standard_normal((2, 1, 8)), dtype=np.float64)
        x_kv = Tensor(rng.standard_normal((2, 1, 8)), dtype=np.float64)
        out = residual_block(x_q, x_kv, params, "ca2")
        np.testing.assert_allclose(out.data, x_q.data, rtol=1e-12)

    def test_cross_block_compositional(self):
        rng = np.random.default_rng(6)
        params = small_setup(rng)
        full = full_attention(rng, 8, proj=params.blocks["ca2"])
        x_q = rng.standard_normal((2, 1, 8))
        x_kv = rng.standard_normal((2, 1, 8))
        out = residual_block(Tensor(x_q, dtype=np.float64), Tensor(x_kv, dtype=np.float64), params, "ca2")
        expect = x_q + mha_loop_oracle(x_q, x_kv, x_kv, full)
        np.testing.assert_allclose(out.data, expect, atol=1e-9)

    def test_self_block_equals_cross_on_same_input(self):
        """The cross block on (x, x) is full self-attention with a residual."""
        rng = np.random.default_rng(7)
        params = small_setup(rng)
        full = full_attention(rng, 8, proj=params.blocks["sa2"])
        x = rng.standard_normal((2, 1, 8))
        xt = Tensor(x, dtype=np.float64)
        out = residual_block(xt, xt, params, "sa2")
        np.testing.assert_allclose(out.data, x + mha_loop_oracle(x, x, x, full), atol=1e-9)

    def test_ffn_zero_weights_identity(self):
        rng = np.random.default_rng(8)
        params = small_setup(rng)
        for t in (params.ffn_w1, params.ffn_b1, params.ffn_w2, params.ffn_b2):
            t.data[...] = 0.0
        x = Tensor(rng.standard_normal((2, 1, 8)), dtype=np.float64)
        out = feed_forward(x, params)
        np.testing.assert_array_equal(out.data, x.data)

    def test_ffn_negative_preactivations_identity(self):
        rng = np.random.default_rng(9)
        params = small_setup(rng)
        params.ffn_w1.data[...] = 0.0
        params.ffn_b1.data[...] = -1.0  # ReLU kills the branch
        params.ffn_b2.data[...] = 0.0
        x = Tensor(rng.standard_normal((2, 1, 8)), dtype=np.float64)
        out = feed_forward(x, params)
        np.testing.assert_array_equal(out.data, x.data)

    def test_ffn_matches_two_matmul_recomputation(self):
        rng = np.random.default_rng(10)
        params = small_setup(rng)
        x = rng.standard_normal((2, 1, 8))
        out = feed_forward(Tensor(x, dtype=np.float64), params)
        h = np.maximum(0.0, x @ params.ffn_w1.data + params.ffn_b1.data)
        expect = x + (h @ params.ffn_w2.data + params.ffn_b2.data)
        np.testing.assert_allclose(out.data, expect, rtol=1e-10)


def full_structure(rng, params):
    """Full attention weights and norm pairs for all five blocks and the FFN.

    Live blocks share their value/output projections and norms with
    ``params``; the blocks ``params`` omits get random weights of their own.
    """
    cfg = params.cfg
    full = {b: full_attention(rng, cfg.d_model, proj=params.blocks.get(b)) for b in BLOCKS}
    rand = lambda: Tensor(rng.standard_normal(cfg.d_model), dtype=np.float64)
    norms = {b: params.norms.get(b) or (rand(), rand()) for b in (*BLOCKS, "ffn")}
    return full, norms


def np_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma.data + beta.data


def fuse_oracle(f_f, f_a, params, full, norms):
    """The five-block softmax-attention structure, every block computed in full."""
    cfg = params.cfg

    def post(y, block):
        return np_layer_norm(y, *norms[block]) if cfg.block_norm else y

    def cross(x_q, x_kv, block):
        return post(x_q + mha_loop_oracle(x_q, x_kv, x_kv, full[block]), block)

    def stage(x_f, x_a):
        if cfg.role_variant in ("a", "b"):
            q, kv = (x_f, x_a) if cfg.role_variant == "a" else (x_a, x_f)
        else:
            if cfg.attention_order == "cross_first":
                ca1 = cross(x_a, x_f, "ca1")
                f_aff = cross(ca1, ca1, "sa1")
                ca2 = cross(x_f, x_a, "ca2")
                f_faa = cross(ca2, ca2, "sa2")
            else:
                a_sa = cross(x_a, x_a, "sa1")
                f_sa = cross(x_f, x_f, "sa2")
                f_aff = cross(a_sa, f_sa, "ca1")
                f_faa = cross(f_sa, a_sa, "ca2")
            q, kv = (f_aff, f_faa) if cfg.role_variant == "d" else (f_faa, f_aff)
        fused = post(mha_loop_oracle(q, kv, kv, full["ca3"]), "ca3")
        h = np.maximum(0.0, fused @ params.ffn_w1.data + params.ffn_b1.data)
        return post(fused + h @ params.ffn_w2.data + params.ffn_b2.data, "ffn")

    x_f, x_a = f_f[:, None, :], f_a[:, None, :]
    for _ in range(cfg.cascade_depth):
        fusion = stage(x_f, x_a)
        x_f = x_f + fusion if cfg.use_residual else fusion
    return x_f[:, 0, :]


def fuse_oracle_variant_d(f_f, f_a, params, full):
    """Manual five-block composition (cross-first, depth 1, residual on)."""
    x_f = f_f[:, None, :]
    x_a = f_a[:, None, :]
    ca1 = x_a + mha_loop_oracle(x_a, x_f, x_f, full["ca1"])
    f_aff = ca1 + mha_loop_oracle(ca1, ca1, ca1, full["sa1"])
    ca2 = x_f + mha_loop_oracle(x_f, x_a, x_a, full["ca2"])
    f_faa = ca2 + mha_loop_oracle(ca2, ca2, ca2, full["sa2"])
    ca3 = mha_loop_oracle(f_aff, f_faa, f_faa, full["ca3"])
    h = np.maximum(0.0, ca3 @ params.ffn_w1.data + params.ffn_b1.data)
    fusion = ca3 + (h @ params.ffn_w2.data + params.ffn_b2.data)
    return (x_f + fusion)[:, 0, :]


class TestFuse:
    def test_zero_forcing_returns_f_f(self):
        rng = np.random.default_rng(11)
        for block_norm in (False, True):
            params = small_setup(rng, block_norm=block_norm)
            zero_fusion_output(params)
            f_f = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
            f_a = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
            out = fuse(f_f, f_a, params)
            np.testing.assert_array_equal(out.data, f_f.data)

    def test_zero_forcing_no_residual_returns_zero(self):
        rng = np.random.default_rng(12)
        params = small_setup(rng, use_residual=False)
        zero_fusion_output(params)
        f_f = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        f_a = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        out = fuse(f_f, f_a, params)
        np.testing.assert_array_equal(out.data, np.zeros((4, 8)))

    def test_depth_one_matches_manual_composition(self):
        rng = np.random.default_rng(13)
        params = small_setup(rng)
        full, _ = full_structure(rng, params)
        f_f = rng.standard_normal((3, 8))
        f_a = rng.standard_normal((3, 8))
        out = fuse(Tensor(f_f, dtype=np.float64), Tensor(f_a, dtype=np.float64), params)
        expect = fuse_oracle_variant_d(f_f, f_a, params, full)
        np.testing.assert_allclose(out.data, expect, atol=1e-9)

    @pytest.mark.parametrize("order", ATTENTION_ORDERS)
    @pytest.mark.parametrize("variant", ROLE_VARIANTS)
    def test_matches_full_softmax_attention(self, variant, order):
        """Random query/key weights in every block and random weights in the
        blocks FusionParams omits do not change the output."""
        rng = np.random.default_rng(21)
        f_f = rng.standard_normal((3, 8))
        f_a = rng.standard_normal((3, 8))
        for depth, residual, block_norm in itertools.product((1, 2), (True, False), (True, False)):
            cfg = FusionConfig(
                d_model=8,
                ffn_hidden=16,
                role_variant=variant,
                attention_order=order,
                cascade_depth=depth,
                use_residual=residual,
                block_norm=block_norm,
            )
            params = FusionParams.init(rng, cfg, dtype=np.float64)
            for t in params.tensors().values():
                t.data[...] = 0.5 * rng.standard_normal(t.shape)
            full, norms = full_structure(rng, params)
            out = fuse(Tensor(f_f, dtype=np.float64), Tensor(f_a, dtype=np.float64), params)
            expect = fuse_oracle(f_f, f_a, params, full, norms)
            np.testing.assert_allclose(out.data, expect, rtol=1e-10, atol=1e-10, err_msg=repr(cfg))

    @pytest.mark.parametrize("order", ATTENTION_ORDERS)
    @pytest.mark.parametrize("variant", ROLE_VARIANTS)
    def test_every_tensor_gets_a_gradient(self, variant, order):
        """Each stored tensor reaches the output; f_a does unless the variant is b."""
        rng = np.random.default_rng(22)
        cfg = FusionConfig(d_model=8, ffn_hidden=16, role_variant=variant, attention_order=order, block_norm=True)
        params = FusionParams.init(rng, cfg, dtype=np.float64)
        f_f = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        f_a = Tensor(rng.standard_normal((4, 8)), requires_grad=True, dtype=np.float64)
        mask = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        T.backward(T.mul(fuse(f_f, f_a, params), mask).mean())
        dead = [k for k, t in params.tensors().items() if t.grad is None or not np.any(t.grad)]
        assert dead == []
        hq_live = f_a.grad is not None and bool(np.any(f_a.grad))
        assert hq_live == (variant != "b") == cfg.hq_branch_live

    def test_init_keeps_the_draw_stream(self):
        """Each block draws query, key, value and output weights in turn and
        keeps the last two, so every variant sees the same stream."""
        d, seed = 8, 23
        ref = np.random.default_rng(seed)
        s = 1.0 / np.sqrt(d)
        draws = {b: [ref.uniform(-s, s, (d, d)) for _ in range(4)] for b in BLOCKS}
        w1 = ref.uniform(-s, s, (d, 16))
        ref.uniform(-0.25, 0.25, (16, d))
        after = ref.random()
        for variant, order in itertools.product(ROLE_VARIANTS, ATTENTION_ORDERS):
            cfg = FusionConfig(d_model=d, ffn_hidden=16, role_variant=variant, attention_order=order)
            rng = np.random.default_rng(seed)
            params = FusionParams.init(rng, cfg, dtype=np.float64)
            assert rng.random() == after
            assert tuple(params.blocks) == cfg.live_blocks
            np.testing.assert_array_equal(params.ffn_w1.data, w1)
            for name, proj in params.blocks.items():
                np.testing.assert_array_equal(proj.wv.data, draws[name][2])
                np.testing.assert_array_equal(proj.wo.data, draws[name][3])

    def test_output_shape_all_variants_and_depths(self):
        rng = np.random.default_rng(14)
        f_f = Tensor(rng.standard_normal((5, 8)), dtype=np.float64)
        f_a = Tensor(rng.standard_normal((5, 8)), dtype=np.float64)
        for variant in ("a", "b", "c", "d"):
            for depth in (1, 3, 5):
                for order in ("cross_first", "self_first"):
                    for block_norm in (False, True):
                        params = small_setup(
                            rng, role_variant=variant, cascade_depth=depth, attention_order=order, block_norm=block_norm
                        )
                        out = fuse(f_f, f_a, params)
                        assert out.shape == (5, 8)
                        assert np.isfinite(out.data).all()

    def test_variants_pairwise_distinguishable(self):
        rng = np.random.default_rng(15)
        f_f = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        f_a = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        outs = {}
        for variant in ("a", "b", "c", "d"):
            params = small_setup(np.random.default_rng(15), role_variant=variant)
            outs[variant] = fuse(f_f, f_a, params).data
        keys = list(outs)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                assert np.max(np.abs(outs[keys[i]] - outs[keys[j]])) > 1e-8

    def test_residual_toggle_changes_output_by_exactly_f_f(self):
        rng = np.random.default_rng(16)
        params = small_setup(rng)
        off_params = dataclasses.replace(params, cfg=dataclasses.replace(params.cfg, use_residual=False))
        f_f = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        f_a = Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
        on = fuse(f_f, f_a, params).data
        off = fuse(f_f, f_a, off_params).data
        np.testing.assert_allclose(on - off, f_f.data, atol=1e-12)

    def test_cascade_feeds_residual_back(self):
        rng = np.random.default_rng(17)
        params = small_setup(rng)
        params2 = dataclasses.replace(params, cfg=dataclasses.replace(params.cfg, cascade_depth=2))
        f_f = Tensor(rng.standard_normal((3, 8)), dtype=np.float64)
        f_a = Tensor(rng.standard_normal((3, 8)), dtype=np.float64)
        once = fuse(f_f, f_a, params)
        again = fuse(once, f_a, params)
        twice = fuse(f_f, f_a, params2)
        np.testing.assert_allclose(twice.data, again.data, rtol=1e-10)

    def test_inconsistent_config_rejected(self):
        rng = np.random.default_rng(18)
        params = small_setup(rng)
        f = Tensor(np.zeros((2, 4)), dtype=np.float64)
        with pytest.raises(ConfigError):
            fuse(f, f, params)
        with pytest.raises(ConfigError):
            FusionConfig(d_model=0)
        with pytest.raises(ConfigError):
            FusionConfig(role_variant="e")

    def test_gradients_match_finite_differences_32bit(self):
        rng = np.random.default_rng(19)
        cfg = FusionConfig(d_model=16, ffn_hidden=32, block_norm=True)
        params = FusionParams.init(rng, cfg, dtype=np.float32)
        f_f = Tensor(rng.standard_normal((4, 16)), requires_grad=True, dtype=np.float32)
        f_a = Tensor(rng.standard_normal((4, 16)), requires_grad=True, dtype=np.float32)
        plist = [f_f, f_a] + list(params.tensors().values())
        mask = Tensor(rng.standard_normal((4, 16)), dtype=np.float32)

        def f(ps):
            return T.mul(fuse(f_f, f_a, params), mask).mean()

        err = finite_diff_check(f, plist, eps=1e-2, samples_per_tensor=4, seed=0)
        assert err < 1e-3

    def test_gradients_all_variants_64bit(self):
        rng = np.random.default_rng(20)
        for variant in ("a", "b", "c", "d"):
            for order in ("cross_first", "self_first"):
                cfg = FusionConfig(d_model=8, ffn_hidden=16, block_norm=True, role_variant=variant, attention_order=order)
                params = FusionParams.init(rng, cfg, dtype=np.float64)
                f_f = Tensor(rng.standard_normal((2, 8)), requires_grad=True, dtype=np.float64)
                f_a = Tensor(rng.standard_normal((2, 8)), requires_grad=True, dtype=np.float64)
                plist = [f_f, f_a] + list(params.tensors().values())
                mask = Tensor(rng.standard_normal((2, 8)), dtype=np.float64)

                def f(ps):
                    return T.mul(fuse(f_f, f_a, params), mask).mean()

                err = finite_diff_check(f, plist, eps=1e-5, samples_per_tensor=3, seed=1)
                assert err < 1e-6, f"variant {variant} order {order}: {err}"
