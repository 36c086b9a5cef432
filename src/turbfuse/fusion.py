"""Dual-branch feature fusion: nested cross/self-attention with a residual.

Each face contributes a single 512-d (desk scale: 64-d) vector, so every
attention block sees one query token and one key/value token per batch
item, and batch items never attend to each other. The softmax over a single
key is exactly 1 for any query, key projection or head count, so attention
reduces to its value and output projections:

    attend(x_kv) = (x_kv·Wv + bv)·Wo + bo

The query and key projections never reach the output, and neither does a
block whose result only feeds another block's query. With lq the frozen-
branch feature and hq the trainable-branch feature, one stage computes

    block(x, x_kv) = norm(x + attend(x_kv))    CA1/CA2; SA1/SA2 use x_kv = x
    fused          = norm(attend(kv))          CA3, no residual
    fusion         = norm(fused + FFN(fused))
    out            = lq + fusion               (fusion alone without residual)

where ``kv`` is CA3's key/value input and ``norm`` is a post-norm present
only with block_norm. Per role variant and attention order:

    variant  cross_first        self_first               live blocks
    a        hq                 hq                       ca3
    b        lq                 lq                       ca3 (hq never read)
    c        SA1(CA1(hq, lq))   CA1(SA1(hq), SA2(lq))    ca1 sa1 ca3 (+sa2)
    d        SA2(CA2(lq, hq))   CA2(SA2(lq), SA1(hq))    ca2 sa2 ca3 (+sa1)

(+sa) is live under self_first only. Cascading feeds the stage output back
as the lq-side input (hq fixed); all stages share one parameter bundle.
``FusionParams`` holds the ``FusionConfig`` it was built for, as
``BackboneParams`` holds its ``BackboneConfig``; every forward reads it there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor

ROLE_VARIANTS = ("a", "b", "c", "d")
ATTENTION_ORDERS = ("cross_first", "self_first")

# every attention block of the structure, in parameter-draw order
BLOCKS = ("ca1", "ca2", "ca3", "sa1", "sa2")

# per variant c/d: (cross block, its self block, the other branch's self block)
_CHAINS = {"c": ("ca1", "sa1", "sa2"), "d": ("ca2", "sa2", "sa1")}


@dataclass
class FusionConfig:
    """Architectural switches of the fusion structure (all ablatable)."""

    d_model: int = 512
    ffn_hidden: int | None = None  # default 4*d_model
    attention_order: str = "cross_first"
    role_variant: str = "d"
    cascade_depth: int = 1
    use_residual: bool = True
    block_norm: bool = True

    def __post_init__(self):
        if self.ffn_hidden is None:
            self.ffn_hidden = 4 * self.d_model
        if self.d_model <= 0:
            raise ConfigError("d_model must be positive")
        if self.ffn_hidden <= 0:
            raise ConfigError("ffn_hidden must be positive")
        if self.attention_order not in ATTENTION_ORDERS:
            raise ConfigError(f"attention_order must be one of {ATTENTION_ORDERS}")
        if self.role_variant not in ROLE_VARIANTS:
            raise ConfigError(f"role_variant must be one of {ROLE_VARIANTS}")
        if self.cascade_depth < 1:
            raise ConfigError("cascade_depth must be >= 1")

    @property
    def live_blocks(self):
        """Attention blocks whose output reaches ``fuse``'s output, in BLOCKS order."""
        if self.role_variant in ("a", "b"):
            return ("ca3",)
        chain = _CHAINS[self.role_variant]
        live = chain if self.attention_order == "self_first" else chain[:2]
        return tuple(b for b in BLOCKS if b == "ca3" or b in live)

    @property
    def hq_branch_live(self):
        """Whether the output depends on the trainable (restored-image) branch."""
        return self.role_variant != "b"


@dataclass
class Projection:
    """Value and output projections of one attention block (bias=True)."""

    wv: Tensor
    wo: Tensor
    bv: Tensor
    bo: Tensor

    def tensors(self, prefix=""):
        return {prefix + n: getattr(self, n) for n in ("wv", "wo", "bv", "bo")}


@dataclass
class FusionParams:
    """All trainable state of the fusion structure.

    ``cfg`` is the architecture the weights were built for and every
    forward runs. blocks maps each live attention block to its projections;
    norms holds (gamma, beta) pairs for those blocks and ``ffn`` when
    block_norm is on.
    """

    cfg: FusionConfig
    blocks: dict
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    norms: dict = field(default_factory=dict)

    @classmethod
    def init(cls, rng, cfg: FusionConfig, dtype=np.float32):
        d = cfg.d_model
        s1 = 1.0 / np.sqrt(d)
        s2 = 1.0 / np.sqrt(cfg.ffn_hidden)

        def t(a):
            return Tensor(a, requires_grad=True, dtype=dtype)

        blocks = {}
        for name in BLOCKS:
            # Slots 0 and 1 are the query and key projections, which cannot
            # reach the output; every block still draws all four so each
            # seed gives the same live weights and later draws in any variant.
            w = rng.uniform(-s1, s1, (4, d, d))
            if name in cfg.live_blocks:
                blocks[name] = Projection(t(w[2]), t(w[3]), t(np.zeros(d)), t(np.zeros(d)))
        params = cls(
            cfg=cfg,
            blocks=blocks,
            ffn_w1=t(rng.uniform(-s1, s1, (d, cfg.ffn_hidden))),
            ffn_b1=t(np.zeros(cfg.ffn_hidden)),
            ffn_w2=t(rng.uniform(-s2, s2, (cfg.ffn_hidden, d))),
            ffn_b2=t(np.zeros(d)),
        )
        if cfg.block_norm:
            for name in (*blocks, "ffn"):
                params.norms[name] = (t(np.ones(d)), t(np.zeros(d)))
        return params

    def tensors(self, prefix=""):
        out = {}
        for name, proj in self.blocks.items():
            out.update(proj.tensors(prefix + name + "."))
        for name in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"):
            out[prefix + name] = getattr(self, name)
        for block, (gamma, beta) in self.norms.items():
            out[prefix + "norm." + block + ".gamma"] = gamma
            out[prefix + "norm." + block + ".beta"] = beta
        return out


def attend(x_kv, p: Projection):
    """Attention of any query over the single key/value token ``x_kv``.

    The softmax weight over one key is exactly 1, so the output is the
    value projection followed by the output projection.
    """
    return T.linear(T.linear(x_kv, p.wv, p.bv), p.wo, p.bo)


def _norm(y, p: FusionParams, block):
    if p.cfg.block_norm:
        gamma, beta = p.norms[block]
        y = T.layer_norm(y, gamma, beta)
    return y


def residual_block(x, x_kv, p: FusionParams, block):
    """norm(x + attend(x_kv)): a cross block, or a self block when x_kv is x."""
    return _norm(T.add(x, attend(x_kv, p.blocks[block])), p, block)


def feed_forward(x, p: FusionParams):
    """dense -> ReLU -> dense with residual add and optional post-norm."""
    h = T.relu(T.linear(x, p.ffn_w1, p.ffn_b1))
    y = T.linear(h, p.ffn_w2, p.ffn_b2)
    return _norm(T.add(x, y), p, "ffn")


def _fusion_stage(x_f, x_a, p: FusionParams):
    """One full fusion stage on (B, 1, D) tokens; returns the stage output."""
    variant = p.cfg.role_variant
    if variant in ("a", "b"):
        kv = x_a if variant == "a" else x_f
    else:
        own, other = (x_a, x_f) if variant == "c" else (x_f, x_a)
        cross, own_self, other_self = _CHAINS[variant]
        if p.cfg.attention_order == "cross_first":
            y = residual_block(own, other, p, cross)
            kv = residual_block(y, y, p, own_self)
        else:  # self_first: each branch self-attends before the cross
            own = residual_block(own, own, p, own_self)
            other = residual_block(other, other, p, other_self)
            kv = residual_block(own, other, p, cross)
    # CA3 stays residual-free, so the fusion branch vanishes exactly when its
    # output projection and the FFN are zeroed (the frozen-baseline bound).
    fused = _norm(attend(kv, p.blocks["ca3"]), p, "ca3")
    return feed_forward(fused, p)


def fuse(f_f, f_a, p: FusionParams):
    """Fuse frozen-branch and trainable-branch features into one embedding,
    under the architecture ``p.cfg`` the weights were built for.

    f_f, f_a: (B, D), f_a None when the variant never reads it (variant b).
    Returns (B, D): the residual-combined feature when cfg.use_residual,
    otherwise the raw fusion output. cascade_depth > 1 repeats the stage,
    feeding each output back as the f_f-side input.
    """
    cfg = p.cfg
    shape_a = f_f.shape if f_a is None else f_a.shape
    if f_f.ndim != 2 or f_f.shape != shape_a:
        raise ShapeError(f"fuse expects matching (B, D) inputs, got {f_f.shape} and {shape_a}")
    if f_f.shape[1] != cfg.d_model:
        raise ConfigError(f"inputs have dim {f_f.shape[1]} but config d_model={cfg.d_model}")
    bsz, d = f_f.shape
    x_f = T.reshape(f_f, (bsz, 1, d))
    x_a = None if f_a is None else T.reshape(f_a, (bsz, 1, d))

    out = None
    for _ in range(cfg.cascade_depth):
        fusion = _fusion_stage(x_f, x_a, p)
        out = T.add(x_f, fusion) if cfg.use_residual else fusion
        x_f = out
    return T.reshape(out, (bsz, d))


def zero_fusion_output(p: FusionParams):
    """Force the fusion branch to emit exactly zero (lower-bound contract).

    Zeroes CA3's output projection/bias, both FFN layers, and (when
    present) the ca3/ffn norm affine pairs, so the stage output is
    identically zero and ``fuse`` returns f_f unchanged with the residual
    on, for every role variant and cascade depth.
    """
    ca3 = p.blocks["ca3"]
    for t in (ca3.wo, ca3.bo, p.ffn_w1, p.ffn_b1, p.ffn_w2, p.ffn_b2):
        t.data[...] = 0.0
    for block in ("ca3", "ffn"):
        if block in p.norms:
            gamma, beta = p.norms[block]
            gamma.data[...] = 0.0
            beta.data[...] = 0.0
