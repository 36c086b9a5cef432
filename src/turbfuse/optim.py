"""SGD with momentum, the one training loop, and the finite-difference
gradient checker.

``fit`` is the training policy shared by ``backbone.pretrain`` and
``trainer.train_adapter``: per-epoch shuffling, batching, the warmup /
polynomial-decay schedule, the divergence check and the SGD updates. Its
callers bring only their parameters and a per-batch loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, EvaluationError, ShapeError, TrainingError
from .tensor import backward, no_grad


class SGD:
    """Momentum SGD with coupled L2 weight decay.

    Update rule per parameter: v <- momentum*v + (grad + wd*param),
    param <- param - lr*v. Momentum buffers mirror parameter shapes.
    """

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        if lr <= 0:
            raise ContractError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ContractError("momentum must lie in [0, 1)")
        if weight_decay < 0:
            raise ContractError("weight_decay must be nonnegative")
        if isinstance(params, dict):
            params = list(params.values())
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.buffers = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        for p, v in zip(self.params, self.buffers):
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ShapeError("gradient shape does not match parameter")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= self.lr * v


@dataclass
class FitConfig:
    """Hyperparameters of one ``fit`` run."""

    batch_size: int = 32
    epochs: int = 5
    lr_base: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 5e-4
    warmup_steps: int = 50
    poly_power: float = 0.9

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError(f"batch_size and epochs must be at least 1, got {self.batch_size} and {self.epochs}")
        if self.lr_base <= 0:
            raise ConfigError("lr_base must be positive")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be nonnegative (0 means no warmup), got {self.warmup_steps}")
        if self.poly_power < 0:
            raise ConfigError(f"poly_power must be nonnegative (0 means a constant rate), got {self.poly_power}")


@dataclass
class TrainHistory:
    steps: list = field(default_factory=list)  # (step, loss, lr)
    epoch_loss: list = field(default_factory=list)

    def record(self, step, loss, lr):
        self.steps.append((step, float(loss), float(lr)))

    @property
    def losses(self):
        return [loss for _, loss, _ in self.steps]

    def to_jsonl(self):
        return "\n".join(f'{{"step": {s}, "loss": {l}, "lr": {r}}}' for s, l, r in self.steps)


def lr_at(step, lr_base, warmup_steps, total_steps, poly_power):
    """Linear warmup to lr_base, then polynomial decay to zero.

    step < warmup: lr_base*(step+1)/warmup; afterwards
    lr_base*(1 - (step-warmup)/(total-warmup))**poly_power.
    """
    if warmup_steps >= total_steps:
        raise ContractError("warmup_steps must be smaller than total_steps")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return lr_base * (step + 1) / warmup_steps
    frac = (step - warmup_steps) / (total_steps - warmup_steps)
    return lr_base * (1.0 - frac) ** poly_power


def fit(tensors, batch_loss, n, rng, cfg: FitConfig, name):
    """Train ``tensors`` (a name -> Tensor dict) on ``n`` samples; returns
    the TrainHistory.

    Each epoch draws ``rng.permutation(n)`` and feeds ``batch_loss`` the
    index array of each full batch (one batch of all ``n`` when ``n`` is
    smaller than the batch size). A non-finite loss raises TrainingError
    carrying the history so far and a copy of the tensors as they stood at
    the end of the last full epoch (their initial values in the first).
    """
    opt = SGD(tensors, lr=cfg.lr_base, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    steps_per_epoch = max(1, n // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    # configs written for full-size runs stay valid on tiny datasets; a
    # one-step run gets no warmup and trains at lr_base
    warmup = cfg.warmup_steps if cfg.warmup_steps < total_steps else min(max(1, total_steps // 5), total_steps - 1)

    history = TrainHistory()
    checkpoint = {k: t.data.copy() for k, t in tensors.items()}
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for bi in range(steps_per_epoch):
            loss = batch_loss(order[bi * cfg.batch_size : (bi + 1) * cfg.batch_size])
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(
                    f"{name} diverged at step {step}", step=step, checkpoint=checkpoint, history=history
                )
            opt.zero_grad()
            backward(loss)
            opt.lr = lr_at(step, cfg.lr_base, warmup, total_steps, cfg.poly_power)
            opt.step()
            history.record(step, value, opt.lr)
            step += 1
        checkpoint = {k: t.data.copy() for k, t in tensors.items()}
    losses = history.losses
    history.epoch_loss = [float(np.mean(losses[i : i + steps_per_epoch])) for i in range(0, step, steps_per_epoch)]
    return history


def finite_diff_check(f, params, eps=1e-5, samples_per_tensor=8, seed=0):
    """Compare analytic gradients of ``f(params)`` with central differences.

    ``f`` must be a deterministic map from the parameter list/dict to a
    scalar Tensor. Coordinates are subsampled per tensor (all coordinates
    when the tensor is small). Returns the max over sampled coordinates of
    |analytic - numeric| / max(1, |numeric|).
    """
    if not 1e-6 <= eps <= 1e-2:
        raise ContractError("eps must lie in [1e-6, 1e-2]")
    plist = list(params.values()) if isinstance(params, dict) else list(params)

    loss = f(params)
    if loss.size != 1:
        raise ContractError("f must return a scalar")
    if not np.isfinite(loss.data).all():
        raise EvaluationError("f returned a non-finite value")
    for p in plist:
        p.zero_grad()
    backward(loss)
    analytic = [None if p.grad is None else p.grad.copy() for p in plist]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, a in zip(plist, analytic):
        if not p.requires_grad:
            continue
        n = p.data.size
        if n <= samples_per_tensor:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=samples_per_tensor, replace=False)
        flat = p.data.reshape(-1)
        a_flat = np.zeros(n) if a is None else a.reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            hi_val = float(flat[i])  # realized value after dtype rounding
            with no_grad():
                f_hi = f(params).item()
            flat[i] = orig - eps
            lo_val = float(flat[i])
            with no_grad():
                f_lo = f(params).item()
            flat[i] = orig
            if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
                raise EvaluationError("f returned a non-finite value during probing")
            numeric = (f_hi - f_lo) / (hi_val - lo_val)
            rel = abs(float(a_flat[i]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
    return worst
