"""Unified angular margin softmax loss.

The target-class logit is s * (cos(m1*theta_y + m2) - m3) with theta_y the
angle between the L2-normalized feature and the L2-normalized class weight
row; non-target logits are s * cos(theta_j). Settings (1, 0.5, 0) recover
the additive-angular-margin loss, (1, 0, 0.35) the additive-cosine-margin
form, and (1, 0, 0) plain scaled softmax. Loss is mean cross-entropy over
the batch and is differentiable w.r.t. features and class weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor

COS_CLAMP = 1e-7


@dataclass
class MarginParams:
    """(m1, m2, m3, s): multiplicative/additive-angle/cosine margins + scale."""

    m1: float = 1.0
    m2: float = 0.5
    m3: float = 0.0
    s: float = 16.0

    def __post_init__(self):
        if self.s <= 0:
            raise ContractError("scale s must be positive")
        if self.m1 < 1.0:
            raise ContractError("m1 must be >= 1")
        if self.m2 < 0 or self.m3 < 0:
            raise ContractError("m2 and m3 must be nonnegative")


@dataclass
class ClassifierHead:
    """Trainable class-center matrix; rows are L2-normalized inside the loss."""

    weights: Tensor

    @classmethod
    def init(cls, rng, n_classes, dim, dtype=np.float32):
        w = rng.standard_normal((n_classes, dim)) * 0.01
        return cls(Tensor(w, requires_grad=True, dtype=dtype))

    @property
    def n_classes(self):
        return self.weights.shape[0]

    def tensors(self, prefix=""):
        return {prefix + "weights": self.weights}


def _l2_normalize_rows(x, what):
    norms = np.sqrt((x.data * x.data).sum(axis=-1))
    if np.any(norms == 0.0):
        raise ContractError(f"zero-norm {what} row")
    sq = T.tensor_sum(T.mul(x, x), axis=-1, keepdims=True)
    return T.mul(x, T.power(sq, -0.5))


def cosine_logits(features, head: ClassifierHead):
    """Clamped cosines between normalized features and class centers, (B, C)."""
    f_hat = _l2_normalize_rows(features, "feature")
    w_hat = _l2_normalize_rows(head.weights, "class-weight")
    cosine = T.matmul(f_hat, T.transpose(w_hat, (1, 0)))
    return T.clip(cosine, -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)


def angular_margin_loss(features, labels, head: ClassifierHead, p: MarginParams):
    """Mean margin-softmax cross-entropy over the batch.

    features: (B, D) Tensor with nonzero rows; labels: int array in [0, C).
    When m1*theta_y + m2 exceeds pi the target logit falls back to the
    monotonic form cos(theta_y) - m2*sin(m2) so the penalty keeps ordering.
    """
    labels = np.asarray(labels)
    bsz, _ = features.shape
    n_classes = head.n_classes
    if labels.shape != (bsz,):
        raise ContractError(f"labels must have shape ({bsz},)")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ContractError(f"labels out of range [0, {n_classes})")

    cosine = cosine_logits(features, head)
    dtype = cosine.dtype
    onehot_np = np.zeros((bsz, n_classes), dtype=dtype)
    onehot_np[np.arange(bsz), labels] = 1.0
    onehot = Tensor(onehot_np)

    cos_y = T.tensor_sum(T.mul(cosine, onehot), axis=1)  # (B,)
    theta_y = T.arccos(cos_y)
    angle = T.add(T.mul(theta_y, p.m1), Tensor(np.full(bsz, p.m2, dtype=dtype)))
    in_range = (angle.data <= math.pi).astype(dtype)
    margin_cos = T.cos(angle)
    fallback = T.sub(cos_y, Tensor(np.full(bsz, p.m2 * math.sin(p.m2), dtype=dtype)))
    phi = T.add(T.mul(margin_cos, Tensor(in_range)), T.mul(fallback, Tensor(1.0 - in_range)))
    target_logit = T.mul(T.sub(phi, Tensor(np.full(bsz, p.m3, dtype=dtype))), p.s)

    logits = T.add(
        T.mul(T.mul(cosine, T.sub(Tensor(np.ones((), dtype=dtype)), onehot)), p.s),
        T.mul(onehot, T.reshape(target_logit, (bsz, 1))),
    )

    # mean cross-entropy via a detached-max log-sum-exp
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = T.sub(logits, shift)
    lse = T.add(T.log(T.tensor_sum(T.exp(z), axis=1)), T.reshape(shift, (bsz,)))
    target = T.tensor_sum(T.mul(logits, onehot), axis=1)
    return T.tensor_mean(T.sub(lse, target))
