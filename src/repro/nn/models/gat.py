"""GAT (Velickovic et al.): attention aggregation.

The model the paper uses to exercise *both* sparse kernels per layer:

* attention scores: ``e = LeakyReLU(a_l . h_row + a_r . h_col)`` — an
  SDDMM variant (``u_add_v``);
* normalization: edge softmax per destination (segment reductions);
* aggregation: SpMM with the attention weights as *trainable* edge
  values — whose backward therefore runs a true SDDMM (d alpha).

Paper config: 5 layers, hidden 16, single head.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.backend import TrainingBackend, get_backend
from repro.nn.clock import charge_elementwise
from repro.nn.graph import GraphData
from repro.nn.modules import Dropout, Linear, Module, Parameter
from repro.nn.sparse_ops import edge_softmax, spmm, u_add_v
from repro.nn.tensor import Tensor
from repro.utils.rng import default_rng


class GATLayer(Module):
    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng=None,
        seed: int = 0,
    ):
        super().__init__()
        rng = default_rng(rng)
        self.linear = Linear(in_features, out_features, bias=False, rng=rng)
        bound = np.sqrt(6.0 / (out_features + 1))
        self.attn_l = Parameter(rng.uniform(-bound, bound, size=(out_features, 1)), name="attn_l")
        self.attn_r = Parameter(rng.uniform(-bound, bound, size=(out_features, 1)), name="attn_r")
        self.attn_drop = Dropout(0.25, seed=seed)

    def forward(self, graph: GraphData, x: Tensor, backend: TrainingBackend) -> Tensor:
        h = self.linear(x)
        el = h @ self.attn_l  # (V, 1)
        er = h @ self.attn_r
        charge_elementwise(graph.num_vertices * 2, name="attn_proj")
        scores_raw = u_add_v(graph, _squeeze(el), _squeeze(er), backend)
        charge_elementwise(graph.num_edges, name="leaky_relu")
        scores = F.leaky_relu(scores_raw)
        alpha = edge_softmax(graph, scores, backend)
        alpha = self.attn_drop(alpha)
        return spmm(graph, alpha, h, backend)


def _squeeze(x: Tensor) -> Tensor:
    out = Tensor(x.data.reshape(-1), parents=(x,))

    def backward(g: np.ndarray) -> None:
        x.accumulate_grad(g.reshape(x.data.shape))

    out._backward = backward
    return out


class GAT(Module):
    """5-layer (configurable) GAT with ELU + dropout (0.5) between layers
    and dropout (0.25) on the attention weights."""

    def __init__(
        self,
        in_features: int,
        hidden: int,
        num_classes: int,
        *,
        num_layers: int = 5,
        backend: TrainingBackend | str = "gnnone",
        seed: int = 0,
    ):
        super().__init__()
        rng = default_rng(seed)
        self.backend = get_backend(backend)
        dims = [in_features] + [hidden] * (num_layers - 1) + [num_classes]
        self.layers = [
            GATLayer(a, b, rng=rng, seed=seed + i)
            for i, (a, b) in enumerate(zip(dims[:-1], dims[1:]))
        ]
        self.dropouts = [Dropout(0.5, seed=seed + 100 + i) for i in range(num_layers - 1)]

    def forward(self, graph: GraphData, x: Tensor) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(graph, h, self.backend)
            if i < len(self.layers) - 1:
                h = F.elu(h)
                h = self.dropouts[i](h)
        return h
