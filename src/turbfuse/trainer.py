"""Adapter training: frozen LQ branch, trainable HQ branch + fusion + head.

Implements the four strategy baselines: ``baseline_lq`` (no training,
frozen model on degraded probes), ``eval_restored`` (no training, frozen
model on restored probes), ``finetune_restored`` (unfreeze a backbone copy
and train it on restored images only), and ``adapter_joint`` (the full
dual-branch method); ``TrainConfig`` accepts only these last two, the
strategies with a state to train. ``strategy_forward`` is each strategy's
probe forward, shared by training and evaluation; it reads everything but
the frozen backbone from the strategy's ``TrainResult``. The fusion config enters once,
in ``init_state``, and travels inside the fusion weights, so a state always
runs the architecture it was built with. The loop itself is ``optim.fit``, the
same one ``backbone.pretrain`` runs; this module builds the parameters and
the per-batch loss. The frozen branch is never registered with the
optimizer, so its bytes are untouched by any run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import BackboneParams, embed
from .errors import ConfigError, ContractError
from .fusion import FusionConfig, FusionParams, fuse
from .margin import ClassifierHead, MarginParams, angular_margin_loss
from .optim import FitConfig, TrainHistory, fit
from .tensor import no_grad

STRATEGIES = ("baseline_lq", "eval_restored", "finetune_restored", "adapter_joint")
TRAINED = ("finetune_restored", "adapter_joint")  # the strategies with a state to train


@dataclass
class TrainConfig(FitConfig):
    seed: int = 0
    strategy: str = "adapter_joint"

    def __post_init__(self):
        super().__post_init__()
        if self.strategy not in TRAINED:
            raise ConfigError(f"train.strategy must be one of {TRAINED}, got {self.strategy!r}: the baselines train nothing")


def forward_framework(lq_images, restored_images, frozen: BackboneParams, hq: BackboneParams | None, fp: FusionParams):
    """Probe embedding of the full framework: fuse(frozen(lq), hq(restored)).

    The frozen branch runs off-tape, so no gradient ever reaches it. With
    ``hq`` None (variant b, whose fusion never reads it) nothing embeds the
    restored images.
    """
    with no_grad():
        f_f = embed(lq_images, frozen)
    f_a = None if hq is None else embed(restored_images, hq)
    return fuse(f_f, f_a, fp)


@dataclass
class TrainResult:
    strategy: str
    hq: BackboneParams | None
    fusion_params: FusionParams | None
    head: ClassifierHead | None
    history: TrainHistory

    @property
    def optimizer_steps(self):
        return len(self.history.steps)

    def tensors(self):
        """The trained tensors by checkpoint name: ``hq.*``, ``fusion.*``, ``head.weights``."""
        parts = (("hq.", self.hq), ("fusion.", self.fusion_params), ("head.", self.head))
        return {k: t for prefix, part in parts if part is not None for k, t in part.tensors(prefix).items()}


def init_state(strategy, frozen: BackboneParams, fusion_cfg: FusionConfig, n_classes, rng):
    """Untrained state of ``finetune_restored`` or ``adapter_joint``: the HQ clone
    of ``frozen``, then the head, then (adapter_joint) the fusion structure.
    It holds exactly the tensors its output reads: a fusion that never reads
    the HQ branch (``not fusion_cfg.hq_branch_live``) gets no clone. The clone
    draws nothing from ``rng``, so the head and fusion draws are unchanged.
    """
    live = strategy == "finetune_restored" or fusion_cfg.hq_branch_live
    hq = frozen.clone(trainable=True) if live else None
    head = ClassifierHead.init(rng, n_classes, frozen.cfg.embed_dim)
    fusion_params = FusionParams.init(rng, fusion_cfg) if strategy == "adapter_joint" else None
    return TrainResult(strategy, hq, fusion_params, head, TrainHistory())


def strategy_forward(strategy, lq_images, restored_images, frozen: BackboneParams, state: TrainResult | None):
    """Probe features of one strategy from its state (None for the two
    baselines); training and evaluation share it."""
    if strategy == "baseline_lq":
        return embed(lq_images, frozen)
    if strategy == "eval_restored":
        return embed(restored_images, frozen)
    if strategy == "finetune_restored":
        return embed(restored_images, state.hq)
    if strategy == "adapter_joint":
        return forward_framework(lq_images, restored_images, frozen, state.hq, state.fusion_params)
    raise ConfigError(f"unknown strategy {strategy!r}")


def train_adapter(
    lq_images,
    restored_images,
    labels,
    frozen: BackboneParams,
    fusion_cfg: FusionConfig,
    margin: MarginParams,
    cfg: TrainConfig,
):
    """Run one trained strategy (``TrainConfig`` accepts no other); returns params actually trained.

    lq_images/restored_images: (N, H, W) arrays aligned with labels.
    Only the HQ branch, fusion structure and classifier head are ever
    updated; ``frozen`` stays untouched (byte-identical) for every
    strategy. Raises TrainingError on NaN loss, carrying the last
    end-of-epoch checkpoint.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        raise ContractError("training manifest is empty")
    rng = np.random.default_rng(cfg.seed)
    state = init_state(cfg.strategy, frozen, fusion_cfg, int(labels.max()) + 1, rng)

    def batch_loss(idx):
        lq, restored = lq_images[idx], restored_images[idx]
        feats = strategy_forward(cfg.strategy, lq, restored, frozen, state)
        return angular_margin_loss(feats, labels[idx], state.head, margin)

    state.history = fit(state.tensors(), batch_loss, n, rng, cfg, cfg.strategy)
    return state


def probe_embeddings(strategy, lq_images, restored_images, frozen: BackboneParams, result: TrainResult | None):
    """Embed probe images the way each strategy is evaluated."""
    with no_grad():
        return strategy_forward(strategy, lq_images, restored_images, frozen, result).data
