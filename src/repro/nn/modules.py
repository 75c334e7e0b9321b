"""Module system: parameters, Linear, Dropout, ReLU, MLP."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro import obs
from repro.nn import functional as F
from repro.nn.clock import charge_elementwise, charge_gemm, current_clock
from repro.nn.tensor import Tensor
from repro.utils.rng import default_rng


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data: np.ndarray, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with recursive parameter discovery and train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> Iterator[Parameter]:
        seen: set[int] = set()
        for value in self.__dict__.values():
            if isinstance(value, Parameter) and id(value) not in seen:
                seen.add(id(value))
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def __call__(self, *args, **kwargs):
        if not obs.tracing_enabled():
            return self.forward(*args, **kwargs)
        # Per-layer span: simulated time is the SimClock delta the
        # forward charges while this module runs (children included).
        clock = current_clock()
        before = clock.total_us if clock is not None else 0.0
        with obs.span(f"nn.{type(self).__name__}") as sp:
            out = self.forward(*args, **kwargs)
            if clock is not None:
                sp.add_sim_us(clock.total_us - before)
        return out

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Dense layer ``y = x W + b`` with Glorot initialization.

    Charges the forward GEMM plus (in training mode) the two backward
    GEMMs to the simulated clock — the PyTorch dense cost both GNNOne
    and the baselines share.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = default_rng(rng)
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(in_features, out_features)), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        m = x.data.shape[0]
        charge_gemm(m, self.out_features, self.in_features, count=3 if self.training else 1)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    def __init__(self, p: float, *, seed: int = 0):
        super().__init__()
        self.p = p
        self._rng = default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        charge_elementwise(x.data.size, count=2 if self.training else 0, name="dropout")
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        charge_elementwise(x.data.size, count=2 if self.training else 1, name="relu")
        return F.relu(x)


class MLP(Module):
    """Two-layer perceptron (the GIN update function)."""

    def __init__(self, in_features: int, hidden: int, out_features: int, *, rng=None):
        super().__init__()
        rng = default_rng(rng)
        self.fc1 = Linear(in_features, hidden, rng=rng)
        self.act = ReLU()
        self.fc2 = Linear(hidden, out_features, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.act(self.fc1(x)))
