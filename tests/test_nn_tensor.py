"""Autograd engine: op gradients vs finite differences, graph mechanics."""

import numpy as np
import pytest

from repro.errors import AutogradError
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.oracles import gradcheck, tsum


class TestTensorBasics:
    def test_requires_grad_propagates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert (a + b).requires_grad
        assert not (b + b).requires_grad

    def test_backward_needs_scalar(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            (a + a).backward()

    def test_backward_on_non_grad_tensor(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones(3)).backward()

    def test_grad_accumulates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (tsum(a) + tsum(a)).backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones(3))

    def test_zero_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        tsum(a).backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph(self):
        """Shared subexpression gets both contributions."""
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * a
        c = tsum(b + b)
        c.backward()
        np.testing.assert_allclose(a.grad, [8.0])

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 1.0
        tsum(x).backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_broadcast_unbroadcast(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        tsum(a + b).backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))


class TestGradcheck:
    def _param(self, shape, rng):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    def test_matmul(self, rng):
        a, b = self._param((3, 4), rng), self._param((4, 2), rng)
        assert gradcheck(lambda x, y: tsum(x @ y), [a, b])

    def test_mul_add(self, rng):
        a, b = self._param(5, rng), self._param(5, rng)
        assert gradcheck(lambda x, y: tsum(x * y + x), [a, b])

    def test_relu(self, rng):
        a = self._param(7, rng)
        a.data += np.sign(a.data) * 0.1  # keep away from the kink
        assert gradcheck(lambda x: tsum(F.relu(x)), [a])

    def test_leaky_relu(self, rng):
        a = self._param(7, rng)
        a.data += np.sign(a.data) * 0.1
        assert gradcheck(lambda x: tsum(F.leaky_relu(x)), [a])

    def test_elu(self, rng):
        a = self._param(7, rng)
        assert gradcheck(lambda x: tsum(F.elu(x)), [a])

    def test_log_softmax(self, rng):
        a = self._param((4, 3), rng)
        assert gradcheck(lambda x: tsum(F.log_softmax(x)), [a])

    def test_nll_loss(self, rng):
        a = self._param((5, 3), rng)
        targets = np.array([0, 2, 1, 1, 0])
        assert gradcheck(lambda x: F.nll_loss(F.log_softmax(x), targets), [a])

    def test_masked_loss(self, rng):
        a = self._param((5, 3), rng)
        targets = np.array([0, 2, 1, 1, 0])
        mask = np.array([True, False, True, False, True])
        assert gradcheck(
            lambda x: F.nll_loss(F.log_softmax(x), targets, mask), [a]
        )


class TestFunctional:
    def test_dropout_eval_identity(self, rng):
        x = Tensor(rng.standard_normal(100))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_preserves_scale(self, rng):
        x = Tensor(np.ones(100_000))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_rejects_bad_p(self, rng):
        with pytest.raises(AutogradError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_log_softmax_normalized(self, rng):
        x = Tensor(rng.standard_normal((10, 5)) * 30)  # large logits
        out = F.log_softmax(x)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        targets = np.array([0, 1, 1])
        assert F.accuracy(logits, targets) == pytest.approx(2 / 3)
        assert F.accuracy(logits, targets, np.array([True, True, False])) == 1.0
        assert F.accuracy(logits, targets, np.zeros(3, dtype=bool)) == 0.0
