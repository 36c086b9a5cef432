"""Desk-scale embedding backbone: conv-pool stages plus one dense layer.

The pretrained copy is frozen as the low-quality branch; a clone of it
initializes the trainable high-quality branch, so both branches start
bitwise-identical. ResNet-depth networks are out of scope; depth/width
are config keys. ``pretrain`` builds the parameters and the per-batch loss;
the training loop is ``optim.fit``, shared with adapter training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .margin import ClassifierHead, MarginParams, angular_margin_loss
from .optim import FitConfig, fit
from .tensor import Tensor


@dataclass
class BackboneConfig:
    image_size: int
    channels: tuple = (8, 16, 32)
    kernel: int = 3
    embed_dim: int = 64

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        if not self.channels or min(self.channels) < 1:
            raise ConfigError(f"channels must list at least one positive width, got {list(self.channels)}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be at least 1, got {self.embed_dim}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError("kernel must be positive and odd (same-padding conv)")
        if self.image_size % (2 ** len(self.channels)):
            raise ConfigError("image_size must be divisible by 2**n_stages")

    @property
    def flat_dim(self):
        side = self.image_size // (2 ** len(self.channels))
        return self.channels[-1] * side * side


@dataclass
class BackboneParams:
    cfg: BackboneConfig
    conv_w: list = field(default_factory=list)
    conv_b: list = field(default_factory=list)
    dense_w: Tensor = None
    dense_b: Tensor = None

    @classmethod
    def init(cls, rng, cfg: BackboneConfig, dtype=np.float32, trainable=True):
        p = cls(cfg)
        c_in = 1
        k = cfg.kernel
        for c_out in cfg.channels:
            scale = np.sqrt(2.0 / (c_in * k * k))
            p.conv_w.append(Tensor(rng.standard_normal((c_out, c_in, k, k)) * scale, requires_grad=trainable, dtype=dtype))
            p.conv_b.append(Tensor(np.zeros(c_out), requires_grad=trainable, dtype=dtype))
            c_in = c_out
        scale = np.sqrt(1.0 / cfg.flat_dim)
        p.dense_w = Tensor(rng.standard_normal((cfg.flat_dim, cfg.embed_dim)) * scale, requires_grad=trainable, dtype=dtype)
        p.dense_b = Tensor(np.zeros(cfg.embed_dim), requires_grad=trainable, dtype=dtype)
        return p

    def tensors(self, prefix=""):
        out = {}
        for i, (w, b) in enumerate(zip(self.conv_w, self.conv_b)):
            out[f"{prefix}conv{i}.w"] = w
            out[f"{prefix}conv{i}.b"] = b
        out[prefix + "dense.w"] = self.dense_w
        out[prefix + "dense.b"] = self.dense_b
        return out

    def clone(self, trainable):
        """Deep copy; the clone's outputs equal the original's bitwise."""
        p = BackboneParams(self.cfg)
        for w, b in zip(self.conv_w, self.conv_b):
            p.conv_w.append(Tensor(w.data.copy(), requires_grad=trainable))
            p.conv_b.append(Tensor(b.data.copy(), requires_grad=trainable))
        p.dense_w = Tensor(self.dense_w.data.copy(), requires_grad=trainable)
        p.dense_b = Tensor(self.dense_b.data.copy(), requires_grad=trainable)
        return p

    def state_bytes(self):
        """Concatenated raw parameter bytes, for freeze-contract checks."""
        return b"".join(t.data.tobytes() for t in self.tensors().values())


# Images per conv pass when no tape is recorded. The conv stages act image
# by image, so chunking them is bitwise-equal to one pass and bounds the
# im2col buffers; the dense layer still sees the whole stack at once.
EMBED_CHUNK = 8


def _conv_stages(x, p: BackboneParams):
    pad = p.cfg.kernel // 2
    for w, b in zip(p.conv_w, p.conv_b):
        x = T.avg_pool2x2(T.relu(T.conv2d(x, w, b, padding=pad)))
    return x


def embed(images, p: BackboneParams):
    """Map (B, H, W) images to (B, D) embeddings (unnormalized)."""
    if not isinstance(images, Tensor):
        images = Tensor(images, dtype=p.dense_w.dtype)
    cfg = p.cfg
    if images.ndim != 3 or images.shape[1] != cfg.image_size or images.shape[2] != cfg.image_size:
        raise ConfigError(f"expected (B, {cfg.image_size}, {cfg.image_size}) images, got {images.shape}")
    bsz = images.shape[0]
    x = T.reshape(images, (bsz, 1, cfg.image_size, cfg.image_size))
    if T.grad_enabled() or bsz <= EMBED_CHUNK:
        x = _conv_stages(x, p)
    else:
        chunks = [_conv_stages(Tensor(x.data[i : i + EMBED_CHUNK]), p).data for i in range(0, bsz, EMBED_CHUNK)]
        x = Tensor(np.concatenate(chunks))
    x = T.reshape(x, (bsz, cfg.flat_dim))
    return T.linear(x, p.dense_w, p.dense_b)


@dataclass
class PretrainResult:
    params: BackboneParams
    loss_history: list


def pretrain(images, labels, cfg: BackboneConfig, margin: MarginParams, fit_cfg: FitConfig, *, seed=0):
    """Train a fresh backbone + classifier head on clean images.

    images: (N, H, W) float array in [0, 1]; labels: int array. Runs
    ``optim.fit`` under ``fit_cfg``. Raises TrainingError on divergence
    (NaN loss).
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    n = images.shape[0]
    n_classes = int(labels.max()) + 1
    if n == 0 or n_classes < 2:
        raise ConfigError("pretraining needs a nonempty dataset with >= 2 identities")

    rng = np.random.default_rng(seed)
    params = BackboneParams.init(rng, cfg)
    head = ClassifierHead.init(rng, n_classes, cfg.embed_dim)
    tensors = dict(params.tensors())
    tensors["head.weights"] = head.weights

    def batch_loss(idx):
        return angular_margin_loss(embed(images[idx], params), labels[idx], head, margin)

    history = fit(tensors, batch_loss, n, rng, fit_cfg, "pretrain")
    return PretrainResult(params, history.losses)
