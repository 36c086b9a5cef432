import dataclasses

import numpy as np
import pytest

from turbfuse.backbone import BackboneConfig, BackboneParams, embed, pretrain
from turbfuse.errors import ConfigError, ContractError, TrainingError
from turbfuse.fusion import ATTENTION_ORDERS, ROLE_VARIANTS, FusionConfig, FusionParams, fuse, zero_fusion_output
from turbfuse.margin import MarginParams, angular_margin_loss
from turbfuse.tensor import Tensor, backward, no_grad
from turbfuse.optim import FitConfig, lr_at
from turbfuse.trainer import (
    TrainConfig,
    forward_framework,
    init_state,
    probe_embeddings,
    strategy_forward,
    train_adapter,
)


def setup_data(rng, n=24, size=16):
    lq = rng.random((n, size, size)).astype(np.float32)
    restored = np.clip(lq + 0.1 * rng.standard_normal((n, size, size)), 0, 1).astype(np.float32)
    labels = np.arange(n) % 4
    return lq, restored, labels


def setup_models(rng, size=16, dim=8):
    bcfg = BackboneConfig(image_size=size, channels=(4, 8), embed_dim=dim)
    frozen = BackboneParams.init(rng, bcfg, trainable=False)
    fcfg = FusionConfig(d_model=dim, ffn_hidden=16)
    return frozen, fcfg


class TestLrSchedule:
    def test_junction_equals_base(self):
        assert lr_at(10, lr_base=0.02, warmup_steps=10, total_steps=100, poly_power=0.9) == pytest.approx(0.02)

    def test_endpoint_zero(self):
        assert lr_at(100, lr_base=0.02, warmup_steps=10, total_steps=100, poly_power=0.9) == 0.0

    def test_warmup_midpoint(self):
        lr = lr_at(4, lr_base=0.02, warmup_steps=10, total_steps=100, poly_power=0.9)
        assert abs(lr - 0.01) <= 0.02 / 10  # within one-step discretization

    def test_continuous_and_nonincreasing_after_warmup(self):
        vals = [lr_at(s, lr_base=0.02, warmup_steps=10, total_steps=100, poly_power=0.9) for s in range(101)]
        assert all(a >= b - 1e-12 for a, b in zip(vals[9:], vals[10:]))
        assert abs(vals[10] - vals[9]) <= 0.02 / 10 + 1e-12

    def test_step_out_of_range(self):
        with pytest.raises(ContractError):
            lr_at(101, lr_base=0.02, warmup_steps=10, total_steps=100, poly_power=0.9)
        with pytest.raises(ContractError):
            lr_at(-1, lr_base=0.02, warmup_steps=10, total_steps=100, poly_power=0.9)


class TestForwardFramework:
    def test_zero_fusion_equals_frozen_baseline_bitwise(self):
        rng = np.random.default_rng(0)
        lq, restored, _ = setup_data(rng)
        frozen, fcfg = setup_models(rng)
        hq = frozen.clone(trainable=True)
        fp = FusionParams.init(rng, fcfg)
        zero_fusion_output(fp)
        out = forward_framework(lq, restored, frozen, hq, fp)
        with no_grad():
            base = embed(lq, frozen)
        assert out.data.tobytes() == base.data.tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        lq, restored, _ = setup_data(rng)
        frozen, fcfg = setup_models(rng)
        hq = frozen.clone(trainable=True)
        fp = FusionParams.init(rng, fcfg)
        a = forward_framework(lq, restored, frozen, hq, fp).data
        b = forward_framework(lq, restored, frozen, hq, fp).data
        assert a.tobytes() == b.tobytes()

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(2)
        lq, restored, _ = setup_data(rng)
        frozen, fcfg = setup_models(rng)
        hq = frozen.clone(trainable=True)
        hq.dense_w.data += 0.01
        fp = FusionParams.init(rng, fcfg)
        out = forward_framework(lq, restored, frozen, hq, fp).data
        with no_grad():
            f_f = embed(lq, frozen)
            f_a = embed(restored, hq)
            expect = fuse(Tensor(f_f.data), f_a, fp).data
        np.testing.assert_array_equal(out, expect)


# every fusion-grid switch away from the defaults, and finetune_restored under
# variant b, which still trains its backbone clone
GRADIENT_REACH_CASES = [("finetune_restored", {}), ("finetune_restored", {"role_variant": "b"})]
GRADIENT_REACH_CASES += [
    ("adapter_joint", {"role_variant": v, "attention_order": o}) for v in ROLE_VARIANTS for o in ATTENTION_ORDERS
]
GRADIENT_REACH_CASES += [
    ("adapter_joint", {"use_residual": False}),
    ("adapter_joint", {"cascade_depth": 3}),
    ("adapter_joint", {"block_norm": False}),
]


def case_id(value):
    return value if isinstance(value, str) else ",".join(f"{k}={v}" for k, v in value.items()) or "defaults"


class TestInitState:
    @pytest.mark.parametrize("strategy, switches", GRADIENT_REACH_CASES, ids=case_id)
    def test_every_trained_tensor_gets_a_gradient_from_one_batch(self, strategy, switches):
        """The state holds exactly the tensors its output reads: variant b,
        whose fusion ignores the restored branch, gets no HQ backbone."""
        rng = np.random.default_rng(11)
        lq, restored, labels = setup_data(rng, n=8)
        frozen, fcfg = setup_models(rng)
        fcfg = dataclasses.replace(fcfg, **switches)
        state = init_state(strategy, frozen, fcfg, 4, rng)
        feats = strategy_forward(strategy, lq, restored, frozen, state)
        backward(angular_margin_loss(feats, labels, state.head, MarginParams(s=8.0)))
        dead = [k for k, t in state.tensors().items() if t.grad is None or not np.any(t.grad)]
        assert dead == []
        assert (state.hq is None) == (strategy == "adapter_joint" and not fcfg.hq_branch_live)


class TestTrainAdapter:
    def test_frozen_branch_bytes_identical(self):
        rng = np.random.default_rng(3)
        lq, restored, labels = setup_data(rng)
        frozen, fcfg = setup_models(rng)
        before = frozen.state_bytes()
        cfg = TrainConfig(batch_size=8, epochs=2, lr_base=0.05, warmup_steps=2, seed=0)
        train_adapter(lq, restored, labels, frozen, fcfg, MarginParams(s=8.0), cfg)
        assert frozen.state_bytes() == before

    @pytest.mark.parametrize("strategy", ["baseline_lq", "eval_restored"])
    def test_train_config_rejects_the_baselines(self, strategy):
        # the baselines have no state to train: a train config for one is a config error, not zero steps
        with pytest.raises(ConfigError, match=f"train.strategy .*{strategy}"):
            TrainConfig(strategy=strategy)

    @pytest.mark.parametrize("field", ["warmup_steps", "poly_power"])
    def test_fit_config_rejects_a_negative_schedule(self, field):
        # zero means no warmup, or a constant rate; below zero warmup is skipped or the rate grows
        FitConfig(**{field: 0})
        with pytest.raises(ConfigError, match=field):
            FitConfig(**{field: -1})

    def test_adapter_loss_decreases(self):
        rng = np.random.default_rng(5)
        # identity-structured data so there is something to learn
        bases = [rng.random((16, 16)) for _ in range(4)]
        lq = np.array([np.clip(bases[i % 4] + 0.05 * rng.standard_normal((16, 16)), 0, 1) for i in range(32)], dtype=np.float32)
        restored = np.clip(lq + 0.02 * rng.standard_normal(lq.shape), 0, 1).astype(np.float32)
        labels = np.arange(32) % 4
        frozen, fcfg = setup_models(rng)
        cfg = TrainConfig(batch_size=8, epochs=6, lr_base=0.05, warmup_steps=3, seed=1)
        res = train_adapter(lq, restored, labels, frozen, fcfg, MarginParams(s=8.0), cfg)
        assert res.history.epoch_loss[-1] < res.history.epoch_loss[0]
        assert res.optimizer_steps == 6 * 4

    def test_finetune_trains_backbone_only(self):
        rng = np.random.default_rng(6)
        lq, restored, labels = setup_data(rng)
        frozen, fcfg = setup_models(rng)
        cfg = TrainConfig(strategy="finetune_restored", batch_size=8, epochs=1, lr_base=0.05, warmup_steps=1, seed=2)
        res = train_adapter(lq, restored, labels, frozen, fcfg, MarginParams(s=8.0), cfg)
        assert res.fusion_params is None
        assert res.hq.state_bytes() != frozen.state_bytes()

    def test_lr_zero_equals_baseline_eval(self):
        rng = np.random.default_rng(7)
        lq, restored, labels = setup_data(rng)
        frozen, fcfg = setup_models(rng)
        cfg = TrainConfig(batch_size=8, epochs=1, lr_base=1e-30, warmup_steps=1, seed=3)
        res = train_adapter(lq, restored, labels, frozen, fcfg, MarginParams(s=8.0), cfg)
        zero_fusion_output(res.fusion_params)
        probe = probe_embeddings("adapter_joint", lq, restored, frozen, res)
        base = probe_embeddings("baseline_lq", lq, restored, frozen, None)
        # hq clone never moved (lr ~ 0) and fusion forced to zero
        np.testing.assert_allclose(probe, base, atol=1e-30)

    def test_configs_unchanged_by_training(self):
        rng = np.random.default_rng(8)
        lq, restored, labels = setup_data(rng)
        frozen, fcfg = setup_models(rng)
        cfg = TrainConfig(batch_size=8, epochs=1, lr_base=0.05, warmup_steps=1, seed=4)
        before = (dataclasses.replace(cfg), dataclasses.replace(fcfg))
        train_adapter(lq, restored, labels, frozen, fcfg, MarginParams(s=8.0), cfg)
        assert (cfg, fcfg) == before

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(strategy="magic")


class TestDivergence:
    """Both trainings run the same loop, so both stop on a non-finite loss
    with the history so far and a checkpoint of every tensor they train."""

    @staticmethod
    def check(err, shapes):
        assert {k: a.shape for k, a in err.checkpoint.items()} == shapes
        assert all(np.isfinite(a).all() for a in err.checkpoint.values())
        assert err.step > 0
        assert [s for s, _, _ in err.history.steps] == list(range(err.step))
        assert np.isfinite(err.history.losses).all()

    def test_pretrain(self):
        rng = np.random.default_rng(9)
        images = rng.random((16, 16, 16)).astype(np.float32)
        labels = np.arange(16) % 4
        bcfg = BackboneConfig(image_size=16, channels=(4, 8), embed_dim=8)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="pretrain diverged") as info:
            pretrain(images, labels, bcfg, MarginParams(s=8.0), FitConfig(epochs=4, batch_size=4, lr_base=1e6), seed=0)
        shapes = {k: t.shape for k, t in BackboneParams.init(rng, bcfg).tensors().items()}
        shapes["head.weights"] = (4, 8)
        self.check(info.value, shapes)

    @pytest.mark.parametrize("strategy", ["finetune_restored", "adapter_joint"])
    def test_train_adapter(self, strategy):
        rng = np.random.default_rng(10)
        lq, restored, labels = setup_data(rng, n=16)
        frozen, fcfg = setup_models(rng)
        cfg = TrainConfig(batch_size=4, epochs=4, lr_base=1e6, warmup_steps=1, strategy=strategy)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match=f"{strategy} diverged") as info:
            train_adapter(lq, restored, labels, frozen, fcfg, MarginParams(s=8.0), cfg)
        shapes = {k: t.shape for k, t in frozen.tensors("hq.").items()}
        if strategy == "adapter_joint":
            shapes.update({k: t.shape for k, t in FusionParams.init(rng, fcfg).tensors("fusion.").items()})
        shapes["head.weights"] = (4, 8)
        self.check(info.value, shapes)
