"""repro.serve — micro-batched async inference over a resident graph.

The online half of the paper's data-load argument: one resident
topology, one plan-cache-warm fused launch per micro-batch, arbitrarily
many concurrent requests.  See :mod:`repro.serve.service` for the
architecture, :mod:`repro.serve.config` for the knobs (set only through
the :class:`ServeConfig` constructor), and :mod:`repro.serve.transport`
/ :mod:`repro.serve.client` for the networked path (length-prefixed
JSON frames, idempotent retries, deadline propagation).

Quickstart::

    from repro import serve, sparse
    from repro.nn.graph import GraphData

    graph = GraphData(sparse.load_dataset("G0").coo).warm()
    service = serve.InferenceService(graph)    # ServeConfig() defaults
    async with service:
        y = await service.propagate(column)     # Â x, micro-batched

Networked::

    async with serve.ServeTransport(service, port=0) as transport:
        async with serve.ServeClient(port=transport.port) as client:
            y = await client.propagate(column, priority="interactive",
                                       deadline_ms=100.0)
"""

from repro.errors import (
    CircuitOpenError,
    ConnectionLostError,
    DeadlineExceededError,
    ProtocolError,
    RequestTimeoutError,
    RetriesExhaustedError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    TransportError,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.scheduler import (
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    PRIORITY_NAMES,
    DeadlineScheduler,
    resolve_priority,
)
from repro.serve.service import FAULT_SITE, InferenceService, ServeStats
from repro.serve.transport import ServeTransport

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "ConnectionLostError",
    "DEFAULT_PRIORITY",
    "DeadlineExceededError",
    "DeadlineScheduler",
    "FAULT_SITE",
    "InferenceService",
    "PRIORITY_CLASSES",
    "PRIORITY_NAMES",
    "ProtocolError",
    "RequestTimeoutError",
    "RetriesExhaustedError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "ServeTransport",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "TransportError",
    "resolve_priority",
]
