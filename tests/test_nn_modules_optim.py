"""Modules, optimizers, clock charging, backends."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import (
    Adam,
    DGL_BACKEND,
    DGNN_BACKEND,
    GNNONE_BACKEND,
    Linear,
    MLP,
    SimClock,
    Tensor,
    get_backend,
    simulate,
)
from tests.oracles import gradcheck, tsum


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(8, 4, rng=rng)
        out = layer(Tensor(rng.standard_normal((10, 8))))
        assert out.shape == (10, 4)

    def test_gradients(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.standard_normal((4, 3)))
        assert gradcheck(lambda w: tsum(x @ w + layer.bias), [layer.weight])

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert sum(1 for _ in layer.parameters()) == 1

    def test_charges_clock_in_training(self, rng):
        layer = Linear(8, 4, rng=rng)
        clock = SimClock()
        with simulate(clock):
            layer(Tensor(rng.standard_normal((100, 8))))
        assert clock.buckets["gemm"] > 0

    def test_eval_charges_less(self, rng):
        layer = Linear(8, 4, rng=rng)
        c_train, c_eval = SimClock(), SimClock()
        with simulate(c_train):
            layer(Tensor(rng.standard_normal((100, 8))))
        layer.eval()
        with simulate(c_eval):
            layer(Tensor(rng.standard_normal((100, 8))))
        assert c_eval.total_us < c_train.total_us


class TestModuleSystem:
    def test_parameter_discovery(self, rng):
        mlp = MLP(4, 8, 2, rng=rng)
        names = sum(1 for _ in mlp.parameters())
        assert names == 4  # two weights + two biases
        assert sum(p.data.size for p in mlp.parameters()) == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_propagates(self, rng):
        model = MLP(4, 8, 2, rng=rng)
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self, rng):
        layer = Linear(3, 2, rng=rng)
        tsum(layer(Tensor(rng.standard_normal((4, 3))))).backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestOptimizers:
    def _quadratic_descent(self, opt_cls, **kw):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = opt_cls([p], **kw)
        for _ in range(200):
            p.zero_grad()
            tsum(p * p).backward()
            opt.step()
        return np.abs(p.data).max()

    def test_adam_converges(self):
        assert self._quadratic_descent(Adam, lr=0.1) < 1e-2

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigError):
            Adam([])

    def test_bad_lr_rejected(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ConfigError):
            Adam([p], lr=0.0)

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad yet: no crash, no change
        np.testing.assert_allclose(p.data, 1.0)


class TestBackends:
    def test_lookup(self):
        assert get_backend("gnnone") is GNNONE_BACKEND
        assert get_backend(DGL_BACKEND) is DGL_BACKEND

    def test_unknown(self):
        with pytest.raises(ConfigError):
            get_backend("pytorch")

    def test_dgnn_fuses_elementwise(self):
        assert DGNN_BACKEND.fused_elementwise
        assert not GNNONE_BACKEND.fused_elementwise

    def test_dgl_dual_format(self):
        assert DGL_BACKEND.dual_format
        assert not GNNONE_BACKEND.dual_format


class TestSimClock:
    def test_fused_skips_elementwise(self):
        from repro.nn.clock import charge_elementwise

        fused, unfused = SimClock(fused_elementwise=True), SimClock()
        with simulate(fused):
            charge_elementwise(10_000)
        with simulate(unfused):
            charge_elementwise(10_000)
        assert fused.total_us == 0.0
        assert unfused.total_us > 0.0

    def test_no_clock_no_crash(self):
        from repro.nn.clock import charge, charge_gemm

        charge("x", 1.0)
        charge_gemm(10, 10, 10)

    def test_reset(self):
        c = SimClock()
        c.add("a", 5.0)
        c.reset()
        assert c.total_us == 0.0 and not c.buckets
