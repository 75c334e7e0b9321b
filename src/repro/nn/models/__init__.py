"""GNN models: GCN, GIN, GAT (the paper's Section 5.3 trio)."""

from repro.nn.models.gat import GAT, GATLayer
from repro.nn.models.gcn import GCN, GCNLayer
from repro.nn.models.gin import GIN, GINLayer

__all__ = [
    "GAT",
    "GATLayer",
    "GCN",
    "GCNLayer",
    "GIN",
    "GINLayer",
]
