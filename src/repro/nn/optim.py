"""The optimizer: Adam, which the paper's training uses."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.nn.clock import charge_elementwise
from repro.nn.tensor import Tensor


class Optimizer:
    def __init__(self, params: Iterable[Tensor]):
        self.params = [p for p in params]
        if not self.params:
            raise ConfigError("optimizer received no parameters")

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _charge(self, passes: int) -> None:
        n = sum(p.data.size for p in self.params)
        charge_elementwise(n, reads=passes, writes=1, name="optimizer")


class Adam(Optimizer):
    """Adam with the usual constants (betas 0.9/0.999, eps 1e-8), no weight decay."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float = 0.01):
        super().__init__(params)
        if lr <= 0:
            raise ConfigError("lr must be positive")
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._charge(3)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
