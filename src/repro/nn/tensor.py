"""Minimal reverse-mode autograd engine over NumPy arrays.

The paper's end-to-end experiments (Figs 5-7) train GCN/GIN/GAT with
PyTorch providing autograd around the sparse kernels.  This module is
the PyTorch stand-in: a :class:`Tensor` records the operations applied
to it and :meth:`backward` walks the graph in reverse topological order.
Gradient correctness is property-tested against finite differences.

Only the ops the GNN models need are implemented, each as a composable
primitive; the sparse ops with their simulated-GPU costs live in
:mod:`repro.nn.sparse_ops`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import AutogradError


class Tensor:
    """A NumPy array plus an autograd tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: np.ndarray | float,
        *,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.name = name

    # -- graph plumbing -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def accumulate_grad(self, g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.data.shape:
            g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-topological backprop from this tensor."""
        if not self.requires_grad:
            raise AutogradError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise AutogradError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(t: "Tensor") -> None:
            stack = [(t, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    order.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    if p.requires_grad:
                        stack.append((p, False))

        visit(self)
        self.accumulate_grad(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators --------------------------------------------------------
    def __add__(self, other: "Tensor | float") -> "Tensor":
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


def _as_tensor(x: "Tensor | float | np.ndarray") -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# -- primitive ops --------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    out._backward = backward
    return out
