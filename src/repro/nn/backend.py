"""Training backends: which kernel implementations a framework uses.

Mirrors the paper's training comparison (Section 5.3):

* **gnnone** — GNNOne kernels for every sparse op, individual (unfused)
  dense kernels, single COO format.
* **dgl** — CuSparse CSR SpMM + DGL's own edge-parallel COO SDDMM,
  individual dense kernels, and *both* formats resident (the memory
  cost the paper's Fig-7 OOM on uk-2002 comes from).
* **dgnn** — dgSparse vertex-parallel kernels with aggressive kernel
  fusion: element-wise ops ride along inside the fused kernels for
  free.  GAT-only in the paper; the handicap GNNOne beats 2.01x anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class TrainingBackend:
    name: str
    spmm: str  # kernel registry name
    sddmm: str
    spmv: str  # used for segment reductions (edge softmax)
    fused_elementwise: bool = False
    #: keeps CSR + CSC + COO resident simultaneously (DGL behaviour)
    dual_format: bool = False


GNNONE_BACKEND = TrainingBackend("gnnone", "gnnone", "gnnone", "gnnone")
DGL_BACKEND = TrainingBackend(
    "dgl", "dgl", "dgl", "dalton", dual_format=True
)
DGNN_BACKEND = TrainingBackend(
    "dgnn", "cusparse", "dgsparse", "dalton", fused_elementwise=True
)

_BACKENDS = {b.name: b for b in (GNNONE_BACKEND, DGL_BACKEND, DGNN_BACKEND)}


def get_backend(backend: TrainingBackend | str) -> TrainingBackend:
    if isinstance(backend, TrainingBackend):
        return backend
    try:
        return _BACKENDS[backend]
    except KeyError:
        raise ConfigError(f"unknown training backend {backend!r}; known: {sorted(_BACKENDS)}")
