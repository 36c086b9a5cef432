import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from turbfuse import tensor as T
from turbfuse.errors import ContractError, ShapeError
from turbfuse.tensor import Tensor


def rand_t(rng, *shape, dtype=np.float64, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad, dtype=dtype)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_identity_column(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [7.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        # independent naive oracle
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expect[i, j] += a[i, k] * b[k, j]
        out = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_analytic(self):
        out = T.softmax(Tensor([math.log(2.0), 0.0], dtype=np.float64), axis=0)
        np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal((3, 5))
            c = rng.standard_normal()
            a = T.softmax(Tensor(x, dtype=np.float64), axis=1).data
            b = T.softmax(Tensor(x + c, dtype=np.float64), axis=1).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 7)) * 30
        out = T.softmax(Tensor(x, dtype=np.float64), axis=1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor([1.0, 2.0]), axis=3)


class TestLayerNorm:
    def test_constant_row(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_already_normalized(self):
        x = Tensor([[1.0, -1.0]], dtype=np.float64)
        out = T.layer_norm(x, Tensor(np.ones(2), dtype=np.float64), Tensor(np.zeros(2), dtype=np.float64), eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        row = rng.standard_normal(6)
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)
        out = T.layer_norm(
            Tensor(row[None, :], dtype=np.float64),
            Tensor(gamma, dtype=np.float64),
            Tensor(beta, dtype=np.float64),
            eps=1e-8,
        )
        # independent scalar recomputation
        mu = sum(row) / 6
        var = sum((v - mu) ** 2 for v in row) / 6
        expect = [(v - mu) / math.sqrt(var + 1e-8) * g + b for v, g, b in zip(row, gamma, beta)]
        np.testing.assert_allclose(out.data[0], expect, rtol=1e-9)
        pre = (out.data[0] - beta) / gamma
        assert abs(pre.mean()) < 1e-5 and abs(pre.std() - 1.0) < 1e-4

    def test_bad_affine_shape(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(T.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_sum(self):
        rng = np.random.default_rng(4)
        x = rand_t(rng, 5)
        T.backward(T.tensor_sum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_accumulates_across_calls(self):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        T.backward(T.tensor_sum(x))
        T.backward(T.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
        x.zero_grad()
        T.backward(T.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.add(x, x))

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = T.tensor_sum(T.mul(x, x))
        assert not y.requires_grad


def _numeric_grad(f, x, eps=1e-6):
    """Independent central-difference oracle over all coordinates."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


# Each entry: (name, builder(x) -> scalar Tensor, input shape)
_UNARY_CASES = [
    ("relu", lambda x: T.tensor_sum(T.relu(x)), (4, 3)),
    ("exp", lambda x: T.tensor_sum(T.exp(x)), (5,)),
    ("log", lambda x: T.tensor_sum(T.log(T.add(T.mul(x, x), 1.5))), (6,)),
    ("cos", lambda x: T.tensor_sum(T.cos(x)), (7,)),
    ("arccos", lambda x: T.tensor_sum(T.arccos(T.clip(x, -0.9, 0.9))), (6,)),
    ("power", lambda x: T.tensor_sum(T.power(T.add(T.mul(x, x), 0.5), -0.5)), (5,)),
    ("mean", lambda x: T.tensor_sum(T.mul(T.tensor_mean(x, axis=0), Tensor(np.arange(3.0), dtype=np.float64))), (4, 3)),
    ("reshape", lambda x: T.tensor_sum(T.mul(T.reshape(x, (8,)), Tensor(np.arange(8.0), dtype=np.float64))), (2, 4)),
    ("transpose", lambda x: T.tensor_sum(T.mul(T.transpose(x, (1, 0)), Tensor(np.arange(6.0).reshape(3, 2), dtype=np.float64))), (2, 3)),
    ("softmax", lambda x: T.tensor_sum(T.mul(T.softmax(x, axis=1), Tensor(np.arange(8.0).reshape(2, 4), dtype=np.float64))), (2, 4)),
]


@pytest.mark.parametrize("name,build,shape", _UNARY_CASES, ids=[c[0] for c in _UNARY_CASES])
def test_gradients_match_finite_differences(name, build, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rand_t(rng, *shape)
    loss = build(x)
    T.backward(loss)

    def f():
        with T.no_grad():
            return build(x).item()

    numeric = _numeric_grad(f, x.data)
    denom = np.maximum(1.0, np.abs(numeric))
    assert np.max(np.abs(x.grad - numeric) / denom) < 1e-6


def test_matmul_gradient_finite_differences():
    rng = np.random.default_rng(11)
    a = rand_t(rng, 3, 4)
    b = rand_t(rng, 4, 2)
    w = rng.standard_normal((3, 2))

    def loss():
        return T.tensor_sum(T.mul(T.matmul(a, b), Tensor(w, dtype=np.float64)))

    T.backward(loss())
    for t in (a, b):
        def f():
            with T.no_grad():
                return loss().item()

        numeric = _numeric_grad(f, t.data)
        assert np.max(np.abs(t.grad - numeric) / np.maximum(1, np.abs(numeric))) < 1e-6


def test_batched_matmul_gradient():
    rng = np.random.default_rng(12)
    a = rand_t(rng, 2, 3, 4)
    b = rand_t(rng, 2, 4, 3)
    w = rng.standard_normal((2, 3, 3))

    def loss():
        return T.tensor_sum(T.mul(T.matmul(a, b), Tensor(w, dtype=np.float64)))

    T.backward(loss())
    for t in (a, b):
        def f():
            with T.no_grad():
                return loss().item()

        numeric = _numeric_grad(f, t.data)
        assert np.max(np.abs(t.grad - numeric) / np.maximum(1, np.abs(numeric))) < 1e-6


def test_layer_norm_gradient():
    rng = np.random.default_rng(13)
    x = rand_t(rng, 3, 5)
    gamma = rand_t(rng, 5)
    beta = rand_t(rng, 5)
    w = rng.standard_normal((3, 5))

    def loss():
        return T.tensor_sum(T.mul(T.layer_norm(x, gamma, beta, eps=1e-6), Tensor(w, dtype=np.float64)))

    T.backward(loss())
    for t in (x, gamma, beta):
        def f():
            with T.no_grad():
                return loss().item()

        numeric = _numeric_grad(f, t.data)
        assert np.max(np.abs(t.grad - numeric) / np.maximum(1, np.abs(numeric))) < 1e-6


def test_conv2d_gradient_and_forward():
    rng = np.random.default_rng(14)
    x = rand_t(rng, 2, 2, 5, 5)
    w = rand_t(rng, 3, 2, 3, 3)
    b = rand_t(rng, 3)

    out = T.conv2d(x, w, b, padding=1)
    assert out.shape == (2, 3, 5, 5)
    # independent direct-sum oracle at a few positions
    for bi, oc, i, j in [(0, 0, 0, 0), (1, 2, 4, 4), (0, 1, 2, 3)]:
        xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        acc = b.data[oc]
        for c in range(2):
            for ky in range(3):
                for kx in range(3):
                    acc += xp[bi, c, i + ky, j + kx] * w.data[oc, c, ky, kx]
        assert abs(out.data[bi, oc, i, j] - acc) < 1e-10

    mask = rng.standard_normal(out.shape)

    def loss():
        return T.tensor_sum(T.mul(T.conv2d(x, w, b, padding=1), Tensor(mask, dtype=np.float64)))

    T.backward(loss())
    for t in (x, w, b):
        def f():
            with T.no_grad():
                return loss().item()

        numeric = _numeric_grad(f, t.data)
        assert np.max(np.abs(t.grad - numeric) / np.maximum(1, np.abs(numeric))) < 1e-6


@pytest.mark.parametrize("cin, cout, size", [(1, 8, 64), (8, 16, 32), (16, 32, 16)], ids=["stage0", "stage1", "stage2"])
def test_conv2d_weight_gradient_matches_per_tap_sum(cin, cout, size):
    # the default backbone's three stages at batch 2; the reference is a
    # float64 sum over batch and positions for each kernel tap
    rng = np.random.default_rng(21)
    xd = rng.standard_normal((2, cin, size, size)).astype(np.float32).astype(np.float64)
    g = rng.standard_normal((2, cout, size, size)).astype(np.float32).astype(np.float64)
    xp = np.pad(xd, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.empty((cout, cin, 3, 3))
    for ky in range(3):
        for kx in range(3):
            ref[:, :, ky, kx] = np.tensordot(g, xp[:, :, ky : ky + size, kx : kx + size], axes=([0, 2, 3], [0, 2, 3]))
    scale = np.max(np.abs(ref))
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 2e-6)):
        w = Tensor(rng.standard_normal((cout, cin, 3, 3)), requires_grad=True, dtype=dtype)
        out = T.conv2d(Tensor(xd, dtype=dtype), w, padding=1)
        T.backward(T.tensor_sum(T.mul(out, Tensor(g, dtype=dtype))))
        assert w.grad.dtype == dtype
        assert np.max(np.abs(w.grad - ref)) <= tol * scale


def test_avg_pool2x2():
    rng = np.random.default_rng(15)
    x = rand_t(rng, 1, 1, 4, 4)
    out = T.avg_pool2x2(x)
    expect = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            expect[i, j] = x.data[0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
    np.testing.assert_allclose(out.data[0, 0], expect, rtol=1e-12)

    def loss():
        return T.tensor_sum(T.mul(T.avg_pool2x2(x), T.avg_pool2x2(x)))

    T.backward(loss())

    def f():
        with T.no_grad():
            return loss().item()

    numeric = _numeric_grad(f, x.data)
    assert np.max(np.abs(x.grad - numeric)) < 1e-6


def _pool_reference(x, g):
    """Reshape-mean forward and its broadcast backward."""
    b, c, h, w = x.shape
    fwd = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    bwd = np.broadcast_to((g / 4)[:, :, :, None, :, None], (b, c, h // 2, 2, w // 2, 2)).reshape(x.shape)
    return fwd, bwd


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape", [(3, 8, 64, 64), (3, 16, 32, 32), (3, 32, 16, 16), (4, 2, 8, 8), (4, 4, 4, 4), (3, 5, 2, 2)]
)
def test_avg_pool2x2_bitwise_reshape_mean(shape, dtype):
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
    g = rng.standard_normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2)).astype(dtype)
    fwd, bwd = _pool_reference(x.data, g)
    out = T.avg_pool2x2(x)
    T.backward(T.tensor_sum(T.mul(out, Tensor(g))))
    assert out.data.dtype == dtype and x.grad.dtype == dtype
    assert out.data.tobytes() == fwd.tobytes()
    assert x.grad.tobytes() == np.ascontiguousarray(bwd).tobytes()


def test_broadcast_add_mul_gradients():
    rng = np.random.default_rng(16)
    a = rand_t(rng, 3, 4)
    b = rand_t(rng, 4)
    c = rand_t(rng, 3, 1)

    def loss():
        return T.tensor_sum(T.mul(T.add(a, b), c))

    T.backward(loss())
    for t in (a, b, c):
        def f():
            with T.no_grad():
                return loss().item()

        numeric = _numeric_grad(f, t.data)
        assert np.max(np.abs(t.grad - numeric)) < 1e-6


def test_determinism_bitwise():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((8, 8)).astype(np.float32)
    w = rng.standard_normal((8, 8)).astype(np.float32)

    def run():
        a = Tensor(x, requires_grad=True)
        out = T.tensor_sum(T.softmax(T.matmul(T.relu(a), Tensor(w)), axis=1))
        T.backward(out)
        return out.data.copy(), a.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert o1.tobytes() == o2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_no_nan_inf_on_finite_inputs():
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((4, 4)) * 50, dtype=np.float64)
    for out in (
        T.softmax(x, axis=1),
        T.layer_norm(x, Tensor(np.ones(4), dtype=np.float64), Tensor(np.zeros(4), dtype=np.float64)),
        T.relu(x),
        T.clip(x, -1 + 1e-7, 1 - 1e-7),
    ):
        assert np.isfinite(out.data).all()


REPO = Path(__file__).resolve().parent.parent


def _tensor_calls_outside_tensor_py():
    """Names of ``turbfuse.tensor`` functions that another ``src/turbfuse`` module calls."""
    called = set()
    for path in (REPO / "src" / "turbfuse").glob("*.py"):
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_aliases, imported = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "tensor":
                        module_aliases.add(alias.asname or alias.name)
                    elif node.module == "tensor":
                        imported[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in module_aliases:
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in imported:
                called.add(imported[f.id])
    return called


def _tracer_ops():
    tree = ast.parse((REPO / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "OPS" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py defines no OPS")


def test_every_public_op_is_reached_from_src_or_traced():
    public = {
        name
        for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")
    }
    called = _tensor_calls_outside_tensor_py()
    dead = sorted(public - called - _tracer_ops())
    assert dead == [], f"tensor functions no src module calls: {dead}"
    assert public - called <= {"softmax"}, "only softmax may stay for the tracer alone"
