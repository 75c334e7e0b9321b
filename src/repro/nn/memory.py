"""Device-memory footprint model for GNN training (the Fig-7 OOM cells).

Evaluated at the *paper-scale* |V|/|E| from the dataset registry, so the
out-of-memory boundary reproduces the paper's: DGL fails GCN on uk-2002
(G17) where GNNOne's single-format storage fits, and every system fails
on kmer_P1a (G16) and uk-2005 (G18).

Components: graph storage (GNNOne: one COO, reused forward/backward;
DGL: COO + CSR + CSC resident), edge-level tensors, input features, the
activations retained for backward, gradient buffers, optimizer state,
and the vendor-library workspace DGL's CuSparse SpMM requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import DeviceSpec
from repro.nn.backend import TrainingBackend

#: Fraction of device memory usable by tensors (allocator reserve,
#: fragmentation, CUDA context, framework overhead).
USABLE_FRACTION = 0.75

_FLOAT = 4


@dataclass(frozen=True)
class TrainingFootprint:
    total_bytes: int
    components: dict

    def fits(self, device: DeviceSpec) -> bool:
        return self.total_bytes <= USABLE_FRACTION * device.memory_bytes


def graph_storage_bytes(num_vertices: int, num_edges: int, backend: TrainingBackend) -> int:
    coo = 8 * num_edges
    if backend.dual_format:
        csr = 4 * num_edges + 8 * (num_vertices + 1)
        csc = 4 * num_edges + 8 * (num_vertices + 1)
        return coo + csr + csc
    return coo


def training_footprint(
    num_vertices: int,
    num_edges: int,
    feature_length: int,
    hidden: int,
    num_classes: int,
    num_layers: int,
    backend: TrainingBackend,
    *,
    model: str = "gcn",
) -> TrainingFootprint:
    """Total training-resident bytes for one model configuration."""
    V, E, F = num_vertices, num_edges, feature_length
    comp: dict[str, int] = {}
    comp["graph"] = graph_storage_bytes(V, E, backend)
    comp["edge_values"] = _FLOAT * E * (2 if backend.dual_format else 1)
    comp["input_features"] = _FLOAT * V * F
    # Activations retained for backward: each layer's input and output.
    acts = V * hidden * max(num_layers - 1, 1) + V * num_classes
    comp["activations"] = _FLOAT * acts * 2  # + matching gradient buffers
    if model == "gat":
        # Attention scores/alphas per layer, retained for backward.
        comp["edge_activations"] = _FLOAT * E * num_layers * 3
    if backend.name == "dgl":
        # One external CuSparse buffer per direction (forward CSR SpMM
        # and backward CSC SpMM), cached across epochs.
        comp["cusparse_workspace"] = 2 * _FLOAT * E
    params = F * hidden + hidden * hidden * max(num_layers - 2, 0) + hidden * num_classes
    comp["parameters"] = _FLOAT * params * 4  # w, g, Adam's m and v
    total = int(sum(comp.values()))
    return TrainingFootprint(total_bytes=total, components=comp)


def fits_on_device(
    device: DeviceSpec,
    num_vertices: int,
    num_edges: int,
    feature_length: int,
    hidden: int,
    num_classes: int,
    num_layers: int,
    backend: TrainingBackend,
    *,
    model: str = "gcn",
) -> bool:
    return training_footprint(
        num_vertices,
        num_edges,
        feature_length,
        hidden,
        num_classes,
        num_layers,
        backend,
        model=model,
    ).fits(device)
