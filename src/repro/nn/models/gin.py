"""GIN (Xu et al.): ``H' = MLP((1 + eps) H + A H)``.

Sum aggregation is an SpMM with unit edge values; ``eps`` is a learned
scalar.  The paper's config: 5 layers, hidden 64.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.backend import TrainingBackend, get_backend
from repro.nn.graph import GraphData
from repro.nn.modules import Dropout, Linear, MLP, Module, Parameter
from repro.nn.sparse_ops import spmm
from repro.nn.tensor import Tensor
from repro.utils.rng import default_rng


class GINLayer(Module):
    def __init__(self, in_features: int, out_features: int, *, rng=None):
        super().__init__()
        self.mlp = MLP(in_features, out_features, out_features, rng=rng)
        self.eps = Parameter(np.zeros(1), name="eps")

    def forward(self, graph: GraphData, x: Tensor, backend: TrainingBackend) -> Tensor:
        ev = Tensor(graph.ones_edge_values)
        agg = spmm(graph, ev, x, backend)
        one_plus_eps = self.eps + 1.0
        h = agg + x * one_plus_eps
        return self.mlp(h)


class GIN(Module):
    """5-layer (configurable) GIN with ReLU + dropout (0.5) after each layer."""

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
        dims = [in_features] + [hidden] * (num_layers - 1) + [hidden]
        self.layers = [GINLayer(a, b, rng=rng) for a, b in zip(dims[:-1], dims[1:])]
        self.dropouts = [Dropout(0.5, seed=seed + i) for i in range(num_layers)]
        self.classify = Linear(hidden, num_classes, rng=rng)

    def forward(self, graph: GraphData, x: Tensor) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(graph, h, self.backend)
            h = F.relu(h)
            h = self.dropouts[i](h)
        return self.classify(h)
