import numpy as np
import pytest

from turbfuse import tensor as T
from turbfuse.errors import ContractError, EvaluationError
from turbfuse.optim import SGD, finite_diff_check
from turbfuse.tensor import Tensor


class TestSGD:
    def test_vanilla_reduction(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.array([0.5, -0.5])
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(p.data, [0.95, 2.05], rtol=1e-12)

    def test_zero_grad_leaves_param(self):
        p = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.zeros(1)
        opt = SGD([p], lr=0.5, momentum=0.0, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, [3.0])

    def test_two_step_momentum_recurrence(self):
        # hand-unrolled oracle: v1 = g1, p1 = p0 - lr*v1;
        # v2 = m*v1 + g2, p2 = p1 - lr*v2
        lr, m = 0.1, 0.9
        g1, g2 = 0.5, -0.2
        p0 = 1.0
        v1 = g1
        p1 = p0 - lr * v1
        v2 = m * v1 + g2
        p2 = p1 - lr * v2

        p = Tensor(np.array([p0]), requires_grad=True, dtype=np.float64)
        opt = SGD([p], lr=lr, momentum=m)
        p.grad = np.array([g1])
        opt.step()
        np.testing.assert_allclose(p.data, [p1], rtol=1e-12)
        p.grad = np.array([g2])
        opt.step()
        np.testing.assert_allclose(p.data, [p2], rtol=1e-12)

    def test_weight_decay_coupled(self):
        p = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.array([0.0])
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        opt.step()
        # v = 0 + (0 + 0.5*2) = 1; p = 2 - 0.1 = 1.9
        np.testing.assert_allclose(p.data, [1.9], rtol=1e-12)

    def test_invalid_hyperparams(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ContractError):
            SGD([p], lr=0.0)
        with pytest.raises(ContractError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ContractError):
            SGD([p], lr=0.1, weight_decay=-1.0)


class TestFiniteDiffCheck:
    def test_polynomial_exact(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True, dtype=np.float64)

        def f(params):
            (p,) = params
            return T.mul(p, p).sum()

        err = finite_diff_check(f, [x], eps=1e-5)
        assert err < 1e-8

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True, dtype=np.float64)
        onehot = np.zeros((4, 6))
        onehot[np.arange(4), rng.integers(0, 6, 4)] = 1.0
        mask = Tensor(onehot, dtype=np.float64)

        def f(params):
            (z,) = params
            p = T.softmax(z, axis=1)
            return T.neg(T.mul(T.log(p), mask).sum().mean())

        err = finite_diff_check(f, [logits], eps=1e-6, samples_per_tensor=24)
        assert err < 1e-6

    def test_eps_range_enforced(self):
        x = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        with pytest.raises(ContractError):
            finite_diff_check(lambda ps: ps[0].sum(), [x], eps=1.0)

    def test_non_finite_rejected(self):
        x = Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)

        def f(params):
            (p,) = params
            return T.log(p).sum()

        with pytest.raises(EvaluationError):
            finite_diff_check(f, [x], eps=1e-5)
