"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 for gradient checks).
Ops are module functions, called as ``T.op(...)``; ``Tensor`` holds data,
grad and tape links only. Every differentiable op records a backward closure
on its output; ``backward()`` on a scalar loss walks the tape in reverse
topological order and accumulates ``d(loss)/d(tensor)`` into ``.grad``.
Gradients are zeroed explicitly between optimizer steps, never implicitly.

``softmax`` is the one op that no other module calls. The benchmark's
tracer times it by name, so it stays until the tracer drops it.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (frozen branches, eval)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    return _grad_enabled


class Tensor:
    """N-dimensional float array, optionally participating in the tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._prev = ()

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(())[()])

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, backward):
    """Build an op output; record tape info only when grads can flow."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def power(a, p):
    """Elementwise a**p for a float exponent (a > 0 unless p is integral)."""
    p = float(p)
    out_data = a.data**p

    def backward(g):
        a._accumulate(g * p * a.data ** (p - 1.0))

    return _make(out_data, (a,), backward)


def relu(a):
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return _make(a.data * mask, (a,), backward)


def exp(a):
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def log(a):
    def backward(g):
        a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def cos(a):
    def backward(g):
        a._accumulate(-g * np.sin(a.data))

    return _make(np.cos(a.data), (a,), backward)


def arccos(a):
    """Inverse cosine; callers must clamp away from ±1 first."""

    def backward(g):
        a._accumulate(-g / np.sqrt(1.0 - a.data * a.data))

    return _make(np.arccos(a.data), (a,), backward)


def clip(a, lo, hi):
    """Clamp values; gradient passes only where the input was not clipped."""
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        a._accumulate(g * mask)

    return _make(np.clip(a.data, lo, hi), (a,), backward)


# -- shape manipulation -------------------------------------------------------


def reshape(a, shape):
    orig = a.shape

    def backward(g):
        a._accumulate(g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        a._accumulate(g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), backward)


# -- reductions ---------------------------------------------------------------


def _norm_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    if any(ax < -ndim or ax >= ndim for ax in axis):
        raise ShapeError(f"invalid axis {axis} for ndim {ndim}")
    axis = tuple(ax % ndim for ax in axis)
    if len(set(axis)) != len(axis):
        raise ShapeError(f"repeated axis in {axis}")
    return axis


def tensor_sum(a, axis=None, keepdims=False):
    axes = _norm_axis(axis, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        gg = g
        if not keepdims and a.ndim:
            gg = np.expand_dims(gg, axes)
        a._accumulate(np.broadcast_to(gg, a.shape).copy())

    return _make(out_data, (a,), backward)


def tensor_mean(a, axis=None, keepdims=False):
    axes = _norm_axis(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if a.ndim else 1
    out_data = a.data.mean(axis=axes, keepdims=keepdims)

    def backward(g):
        gg = g
        if not keepdims and a.ndim:
            gg = np.expand_dims(gg, axes)
        a._accumulate(np.broadcast_to(gg, a.shape) / count)

    return _make(out_data, (a,), backward)


# -- linear algebra -----------------------------------------------------------


def matmul(a, b):
    """Matrix product; batch dimensions (if any) must match exactly."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires tensors of rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, b.data.swapaxes(-1, -2)))
        if b.requires_grad:
            b._accumulate(np.matmul(a.data.swapaxes(-1, -2), g))

    return _make(out_data, (a, b), backward)


def linear(x, w, b=None):
    """x @ w (+ b) applied over the last axis of x."""
    d_in, d_out = w.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear expects last dim {d_in}, got {x.shape}")
    lead = x.shape[:-1]
    y = matmul(reshape(x, (-1, d_in)), w)
    if b is not None:
        y = add(y, b)
    return reshape(y, lead + (d_out,))


# -- normalization ------------------------------------------------------------


def softmax(x, axis):
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    axis = _norm_axis(axis, x.ndim)
    if len(axis) != 1:
        raise ShapeError("softmax takes a single axis")
    ax = axis[0]
    shifted = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=ax, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=ax, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return _make(out_data, (x,), backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    mu = tensor_mean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = tensor_mean(mul(xc, xc), axis=-1, keepdims=True)
    inv = power(add(var, _as_tensor(eps, x)), -0.5)
    xhat = mul(xc, inv)
    return add(mul(xhat, gamma), beta)


# -- convolution --------------------------------------------------------------


def conv2d(x, w, b=None, padding=0):
    """2-D convolution (cross-correlation), NCHW layout.

    x: (B, C, H, W), w: (O, C, kh, kw), b: (O,) or None. Implemented via
    shifted-slice im2col so forward and backward stay vectorized. The weight
    gradient is one matmul per image, summed over the batch: in float32 it
    is within 2e-6·max|gw| of the exact sum (about 5e-7 measured), in
    float64 within rounding.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and weight")
    bsz, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: {cin} vs {cin_w}")
    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = xp.shape[2], xp.shape[3]
    ho = hp - kh + 1
    wo = wp - kw + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError("conv2d kernel larger than padded input")

    cols = np.empty((bsz, cin, kh, kw, ho, wo), dtype=xp.dtype)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, :, ky, kx] = xp[:, :, ky : ky + ho, kx : kx + wo]
    cols2 = cols.reshape(bsz, cin * kh * kw, ho * wo)
    w2 = w.data.reshape(cout, cin * kh * kw)
    out_data = np.matmul(w2, cols2).reshape(bsz, cout, ho, wo)
    if b is not None:
        out_data = out_data + b.data.reshape(1, cout, 1, 1)

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(bsz, cout, ho * wo)
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            gw = np.matmul(g2, cols2.transpose(0, 2, 1)).sum(axis=0)
            w._accumulate(gw.reshape(w.shape))
        if x.requires_grad:
            gcols = np.matmul(w2.T, g2).reshape(bsz, cin, kh, kw, ho, wo)
            gxp = np.zeros((bsz, cin, hp, wp), dtype=g.dtype)
            for ky in range(kh):
                for kx in range(kw):
                    gxp[:, :, ky : ky + ho, kx : kx + wo] += gcols[:, :, ky, kx]
            if padding:
                gxp = gxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(gxp)

    return _make(out_data, parents, backward)


def avg_pool2x2(x):
    """2x2 mean pooling on (B, C, H, W); H and W must be even."""
    bsz, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2x2 needs even spatial dims, got {h}x{w}")
    xd = x.data
    x00, x01 = xd[:, :, 0::2, 0::2], xd[:, :, 0::2, 1::2]
    x10, x11 = xd[:, :, 1::2, 0::2], xd[:, :, 1::2, 1::2]
    # the summation order numpy's reshape-mean uses, so results stay bitwise
    if w == 2:
        out_data = (((x00 + x01) + x10) + x11) * 0.25
    else:
        out_data = ((x00 + x01) + (x10 + x11)) * 0.25

    def backward(g):
        gx = np.empty_like(xd)
        gq = g * 0.25
        for dy in (0, 1):
            for dx in (0, 1):
                gx[:, :, dy::2, dx::2] = gq
        x._accumulate(gx)

    return _make(out_data, (x,), backward)


# -- backward pass ------------------------------------------------------------


def backward(loss):
    """Propagate d(loss)/d(tensor) through the tape; loss must be scalar.

    Gradients add into existing ``.grad`` buffers; call ``zero_grad`` on the
    parameters before a fresh accumulation.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
