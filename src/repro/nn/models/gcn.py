"""GCN (Kipf & Welling): ``H' = sigma(Â H W)``.

Forward is one SpMM per layer over the symmetric-normalized adjacency;
the backward pass runs SpMM on the transpose — exactly the kernel
sequence the paper's Fig-7 GCN experiment times.  The paper's config:
2 layers, hidden 16.
"""

from __future__ import annotations


from repro.nn import functional as F
from repro.nn.backend import TrainingBackend, get_backend
from repro.nn.graph import GraphData
from repro.nn.modules import Dropout, Linear, Module
from repro.nn.sparse_ops import spmm
from repro.nn.tensor import Tensor
from repro.utils.rng import default_rng


class GCNLayer(Module):
    def __init__(self, in_features: int, out_features: int, *, rng=None):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, graph: GraphData, x: Tensor, backend: TrainingBackend) -> Tensor:
        h = self.linear(x)
        ev = Tensor(graph.gcn_edge_values)  # constant, not trained
        return spmm(graph, ev, h, backend)


class GCN(Module):
    """Two-layer (configurable) GCN with ReLU + dropout (0.5) between layers."""

    def __init__(
        self,
        in_features: int,
        hidden: int,
        num_classes: int,
        *,
        num_layers: int = 2,
        backend: TrainingBackend | str = "gnnone",
        seed: int = 0,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = default_rng(seed)
        self.backend = get_backend(backend)
        dims = [in_features] + [hidden] * (num_layers - 1) + [num_classes]
        self.layers = [GCNLayer(a, b, rng=rng) for a, b in zip(dims[:-1], dims[1:])]
        self.dropouts = [Dropout(0.5, seed=seed + i) for i in range(num_layers - 1)]

    def forward(self, graph: GraphData, x: Tensor) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(graph, h, self.backend)
            if i < len(self.layers) - 1:
                h = F.relu(h)
                h = self.dropouts[i](h)
        return h
