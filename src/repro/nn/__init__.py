"""GNN training stack: autograd, modules, models, trainer, backends."""

from repro.nn import functional
from repro.nn.backend import (
    DGL_BACKEND,
    DGNN_BACKEND,
    GNNONE_BACKEND,
    TrainingBackend,
    get_backend,
)
from repro.nn.clock import SimClock, simulate
from repro.nn.data import NodeClassificationData, synthesize
from repro.nn.graph import GraphData
from repro.nn.models import GAT, GCN, GIN
from repro.nn.modules import Dropout, Linear, MLP, Module, Parameter, ReLU
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.nn.trainer import TrainResult, Trainer

__all__ = [
    "functional",
    "DGL_BACKEND",
    "DGNN_BACKEND",
    "GNNONE_BACKEND",
    "TrainingBackend",
    "get_backend",
    "SimClock",
    "simulate",
    "NodeClassificationData",
    "synthesize",
    "GraphData",
    "GAT",
    "GCN",
    "GIN",
    "Dropout",
    "Linear",
    "MLP",
    "Module",
    "Parameter",
    "ReLU",
    "Adam",
    "Tensor",
    "TrainResult",
    "Trainer",
]
