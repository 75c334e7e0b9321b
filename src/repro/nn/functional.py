"""Differentiable activations, dropout and losses for the GNN models."""

from __future__ import annotations

import numpy as np

from repro.errors import AutogradError
from repro.exec.numerics import LEAKY_RELU_SLOPE
from repro.nn.tensor import Tensor
from repro.utils.rng import default_rng


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(x.data * mask, parents=(x,))

    def backward(g: np.ndarray) -> None:
        x.accumulate_grad(g * mask)

    out._backward = backward
    return out


def leaky_relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    scale = np.where(mask, 1.0, LEAKY_RELU_SLOPE)
    out = Tensor(x.data * scale, parents=(x,))

    def backward(g: np.ndarray) -> None:
        x.accumulate_grad(g * scale)

    out._backward = backward
    return out


def elu(x: Tensor) -> Tensor:
    """ELU with alpha 1."""
    neg = np.exp(np.minimum(x.data, 0.0)) - 1.0
    out_data = np.where(x.data > 0, x.data, neg)
    out = Tensor(out_data, parents=(x,))

    def backward(g: np.ndarray) -> None:
        x.accumulate_grad(g * np.where(x.data > 0, 1.0, neg + 1.0))

    out._backward = backward
    return out


def dropout(x: Tensor, p: float, *, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity at eval time."""
    if not 0.0 <= p < 1.0:
        raise AutogradError(f"dropout p must be in [0,1), got {p}")
    if not training or p == 0.0:
        return x
    rng = default_rng(rng)
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * mask, parents=(x,))

    def backward(g: np.ndarray) -> None:
        x.accumulate_grad(g * mask)

    out._backward = backward
    return out


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - logsumexp
    out = Tensor(out_data, parents=(x,))
    softmax = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        x.accumulate_grad(g - softmax * g.sum(axis=-1, keepdims=True))

    out._backward = backward
    return out


def nll_loss(log_probs: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean negative log likelihood over (optionally masked) rows."""
    targets = np.asarray(targets, dtype=np.int64)
    if log_probs.ndim != 2 or targets.shape != (log_probs.shape[0],):
        raise AutogradError("nll_loss expects (N,C) log-probs and (N,) targets")
    idx = np.arange(targets.shape[0])
    if mask is None:
        mask = np.ones(targets.shape[0], dtype=bool)
    n = max(int(mask.sum()), 1)
    picked = log_probs.data[idx, targets] * mask
    out = Tensor(-picked.sum() / n, parents=(log_probs,))

    def backward(g: np.ndarray) -> None:
        grad = np.zeros_like(log_probs.data)
        grad[idx, targets] = -mask.astype(np.float64) / n
        log_probs.accumulate_grad(grad * g)

    out._backward = backward
    return out


def accuracy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray | None = None) -> float:
    pred = np.asarray(logits).argmax(axis=-1)
    correct = pred == np.asarray(targets)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.sum() == 0:
            return 0.0
        correct = correct[mask]
    return float(correct.mean())
