"""Adapter training: frozen LQ branch, trainable HQ branch + fusion + head.

Implements the four strategy baselines: ``baseline_lq`` (no training,
frozen model on degraded probes), ``eval_restored`` (no training, frozen
model on restored probes), ``finetune_restored`` (unfreeze a backbone copy
and train it on restored images only), and ``adapter_joint`` (the full
dual-branch method). The frozen branch is never registered with the
optimizer, so its bytes are untouched by any run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .backbone import BackboneParams, embed
from .errors import ConfigError, ContractError, TrainingError
from .fusion import FusionConfig, FusionParams, fuse
from .margin import ClassifierHead, MarginParams, angular_margin_loss
from .optim import SGD
from .tensor import Tensor, no_grad

STRATEGIES = ("baseline_lq", "eval_restored", "finetune_restored", "adapter_joint")


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 5
    lr_base: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 5e-4
    warmup_steps: int = 50
    poly_power: float = 0.9
    seed: int = 0
    strategy: str = "adapter_joint"
    reuse_pretrain_head: bool = False
    total_steps: int | None = None  # for lr_at(step, cfg); train_adapter derives its own

    def __post_init__(self):
        if self.lr_base <= 0:
            raise ConfigError("lr_base must be positive")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")


@dataclass
class TrainHistory:
    steps: list = field(default_factory=list)  # (step, loss, lr)
    epoch_loss: list = field(default_factory=list)

    def record(self, step, loss, lr):
        self.steps.append((step, float(loss), float(lr)))

    def to_jsonl(self):
        return "\n".join(f'{{"step": {s}, "loss": {l}, "lr": {r}}}' for s, l, r in self.steps)


def lr_at(step, cfg: TrainConfig | None = None, *, lr_base=None, warmup_steps=None, total_steps=None, poly_power=None):
    """Linear warmup to lr_base, then polynomial decay to zero.

    step < warmup: lr_base*(step+1)/warmup; afterwards
    lr_base*(1 - (step-warmup)/(total-warmup))**poly_power.
    """
    if cfg is not None:
        lr_base = cfg.lr_base
        warmup_steps = cfg.warmup_steps
        total_steps = cfg.total_steps
        poly_power = cfg.poly_power
    if total_steps is None:
        raise ContractError("total_steps is required to evaluate the schedule")
    if warmup_steps >= total_steps:
        raise ContractError("warmup_steps must be smaller than total_steps")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return lr_base * (step + 1) / warmup_steps
    frac = (step - warmup_steps) / (total_steps - warmup_steps)
    return lr_base * (1.0 - frac) ** poly_power


def forward_framework(lq_images, restored_images, frozen: BackboneParams, hq: BackboneParams, fp: FusionParams, cfg: FusionConfig):
    """Probe embedding of the full framework: fuse(frozen(lq), hq(restored)).

    The frozen branch runs off-tape, so no gradient ever reaches it.
    """
    with no_grad():
        f_f = embed(lq_images, frozen)
    f_a = embed(restored_images, hq)
    return fuse(Tensor(f_f.data), f_a, fp, cfg)


@dataclass
class TrainResult:
    strategy: str
    hq: BackboneParams | None
    fusion_params: FusionParams | None
    head: ClassifierHead | None
    history: TrainHistory
    optimizer_steps: int


def _epoch_means(history: TrainHistory, steps_per_epoch):
    losses = [s[1] for s in history.steps]
    return [float(np.mean(losses[i : i + steps_per_epoch])) for i in range(0, len(losses), steps_per_epoch)]


def train_adapter(
    lq_images,
    restored_images,
    labels,
    frozen: BackboneParams,
    fusion_cfg: FusionConfig,
    margin: MarginParams,
    cfg: TrainConfig,
    pretrain_head: ClassifierHead | None = None,
):
    """Run one training strategy; returns params actually trained.

    lq_images/restored_images: (N, H, W) arrays aligned with labels.
    Only the HQ branch, fusion structure and classifier head are ever
    updated; ``frozen`` stays untouched (byte-identical) for every
    strategy. Raises TrainingError on NaN loss, carrying the last
    end-of-epoch checkpoint.
    """
    if cfg.strategy in ("baseline_lq", "eval_restored"):
        return TrainResult(cfg.strategy, None, None, None, TrainHistory(), 0)

    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        raise ContractError("training manifest is empty")
    n_classes = int(labels.max()) + 1
    rng = np.random.default_rng(cfg.seed)

    hq = frozen.clone(trainable=True)
    fusion_params = None
    if cfg.reuse_pretrain_head:
        if pretrain_head is None:
            raise ContractError("reuse_pretrain_head set but no pretrained head given")
        head = ClassifierHead(Tensor(pretrain_head.weights.data.copy(), requires_grad=True))
    else:
        head = ClassifierHead.init(rng, n_classes, frozen.cfg.embed_dim)

    tensors = dict(hq.tensors("hq."))
    if cfg.strategy == "adapter_joint":
        fusion_params = FusionParams.init(rng, fusion_cfg)
        tensors.update(fusion_params.tensors("fusion."))
    tensors["head.weights"] = head.weights

    opt = SGD(tensors, lr=cfg.lr_base, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    steps_per_epoch = max(1, n // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    # configs written for full-size runs stay valid on tiny datasets
    warmup = cfg.warmup_steps if cfg.warmup_steps < total_steps else max(1, total_steps // 5)

    history = TrainHistory()
    checkpoint = {k: t.data.copy() for k, t in tensors.items()}
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for bi in range(steps_per_epoch):
            idx = order[bi * cfg.batch_size : (bi + 1) * cfg.batch_size]
            if cfg.strategy == "adapter_joint":
                feats = forward_framework(lq_images[idx], restored_images[idx], frozen, hq, fusion_params, fusion_cfg)
            else:  # finetune_restored: tuned backbone on restored images only
                feats = embed(restored_images[idx], hq)
            loss = angular_margin_loss(feats, labels[idx], head, margin)
            value = loss.item()
            lr = lr_at(step, lr_base=cfg.lr_base, warmup_steps=warmup, total_steps=total_steps, poly_power=cfg.poly_power)
            if not np.isfinite(value):
                raise TrainingError(
                    f"{cfg.strategy} diverged at step {step}", step=step, checkpoint=checkpoint, history=history
                )
            opt.zero_grad()
            T.backward(loss)
            opt.lr = lr
            opt.step()
            history.record(step, value, lr)
            step += 1
        checkpoint = {k: t.data.copy() for k, t in tensors.items()}
    history.epoch_loss[:] = _epoch_means(history, steps_per_epoch)
    return TrainResult(cfg.strategy, hq, fusion_params, head, history, step)


def probe_embeddings(strategy, lq_images, restored_images, frozen: BackboneParams, result: TrainResult | None, fusion_cfg: FusionConfig | None):
    """Embed probe images the way each strategy is evaluated."""
    with no_grad():
        if strategy == "baseline_lq":
            return embed(lq_images, frozen).data
        if strategy == "eval_restored":
            return embed(restored_images, frozen).data
        if strategy == "finetune_restored":
            return embed(restored_images, result.hq).data
        if strategy == "adapter_joint":
            return forward_framework(lq_images, restored_images, frozen, result.hq, result.fusion_params, fusion_cfg).data
    raise ConfigError(f"unknown strategy {strategy!r}")
