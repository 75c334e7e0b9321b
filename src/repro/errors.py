"""Exception hierarchy for the GNNOne reproduction.

Every failure mode that the paper's evaluation exercises (CUDA
launch-configuration limits hit by Sputnik's |V|^2 thread-block SDDMM,
malformed graphs, ...) is modeled as a typed exception so benchmark
harnesses can record "ERR" cells exactly like the paper's figures do.

Every error carries a stable, machine-readable ``code`` (class
attribute, dotted lowercase).  The serving transport puts the code on
the wire — an error frame is ``{"code": ..., "message": ...}`` — and
:func:`error_from_code` reconstructs the typed exception on the client
side, so remote callers switch on codes, never on message strings.
Codes are part of the wire protocol: renaming one is a protocol break.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    #: stable machine-readable identity; subclasses override.
    code = "repro.error"


class FormatError(ReproError):
    """A sparse-format invariant was violated (bad indices, wrong dtype...)."""

    code = "format.invalid"


class KernelLaunchError(ReproError):
    """The simulated kernel launch exceeds a hard device limit.

    Mirrors CUDA's ``cudaErrorInvalidConfiguration``: e.g. Sputnik's SDDMM
    allocating more thread blocks than the grid-dimension limit allows
    (the paper observes this for |V| above ~2 million).
    """

    code = "kernel.launch"


class AutogradError(ReproError):
    """Invalid use of the autograd engine (e.g. backward on non-scalar)."""

    code = "autograd.invalid"


class ConfigError(ReproError):
    """An invalid kernel/scheduler configuration was requested."""

    code = "config.invalid"


class BenchmarkError(ReproError):
    """An experiment harness failure (unknown experiment id, bad sweep...)."""

    code = "bench.error"


class GraphValidationError(FormatError):
    """A graph failed the validation boundary (:mod:`repro.resilience`).

    Subclasses :class:`FormatError` so callers that guarded the old
    constructor-time checks keep working; carries the offending edge
    index (or row/feature position) when one can be pinpointed.
    """

    code = "graph.invalid"

    def __init__(self, message: str, *, edge_index: int | None = None):
        super().__init__(message)
        self.edge_index = edge_index


class ResilienceError(ReproError):
    """Base class for recoverable-execution failures (:mod:`repro.resilience`)."""

    code = "resilience.error"


class FaultInjectedError(ResilienceError):
    """An error raised deliberately by the fault injector (chaos testing)."""

    code = "resilience.fault_injected"


class TrainingDivergedError(ResilienceError):
    """Training produced a non-finite loss that checkpoint rollback could not cure."""

    code = "resilience.diverged"


class ServeError(ReproError):
    """Base class for inference-service failures (:mod:`repro.serve`)."""

    code = "serve.error"


class ServiceOverloadedError(ServeError):
    """The request queue is full; the request was load-shed at admission.

    Carries the queue depth at shed time so clients can implement
    informed backoff instead of blind retries.
    """

    code = "serve.overloaded"

    def __init__(self, message: str, *, queue_depth: int | None = None):
        super().__init__(message)
        self.queue_depth = queue_depth


class RequestTimeoutError(ServeError):
    """A request missed its deadline while waiting on (or inside) a batch."""

    code = "serve.timeout"


class DeadlineExceededError(ServeError):
    """A request's deadline expired before launch; it was shed unexecuted.

    Distinct from :class:`RequestTimeoutError`: the scheduler proved the
    deadline unmeetable *before* spending any kernel work on the
    request, so shedding it is free capacity back.
    """

    code = "serve.deadline"


class ServiceClosedError(ServeError):
    """A request arrived at (or was pending in) a stopped service."""

    code = "serve.closed"


class CircuitOpenError(ServeError):
    """The circuit breaker is open: the service fast-fails new requests.

    Raised at admission while the breaker backs off after consecutive
    batch failures; carries ``retry_after_ms`` (time until the breaker
    half-opens) so clients can schedule an informed retry.
    """

    code = "serve.circuit_open"

    def __init__(self, message: str, *, retry_after_ms: float | None = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class TransportError(ServeError):
    """Base class for networked-serving transport failures."""

    code = "transport.error"


class ProtocolError(TransportError):
    """A malformed, oversized, or version-incompatible frame was seen."""

    code = "transport.protocol"


class ConnectionLostError(TransportError):
    """The peer vanished mid-conversation (reset, EOF, torn frame)."""

    code = "transport.conn_lost"


class RetriesExhaustedError(TransportError):
    """The client spent its bounded retry budget without a response."""

    code = "transport.retries_exhausted"


#: wire-stable registry: every concrete error a peer may see on the
#: wire, by code.  :func:`error_from_code` uses it to rebuild typed
#: exceptions client-side.
ERROR_CODES: dict[str, type[ReproError]] = {
    cls.code: cls
    for cls in (
        ReproError,
        FormatError,
        KernelLaunchError,
        AutogradError,
        ConfigError,
        BenchmarkError,
        GraphValidationError,
        ResilienceError,
        FaultInjectedError,
        TrainingDivergedError,
        ServeError,
        ServiceOverloadedError,
        RequestTimeoutError,
        DeadlineExceededError,
        ServiceClosedError,
        CircuitOpenError,
        TransportError,
        ProtocolError,
        ConnectionLostError,
        RetriesExhaustedError,
    )
}


def error_from_code(code: str, message: str) -> ReproError:
    """Rebuild the typed exception a remote error frame describes.

    Unknown codes (a newer server, a site-specific subclass) degrade to
    :class:`ServeError` with the received code attached to the
    *instance*, so callers can still switch on ``err.code`` without
    this process knowing the class.
    """
    cls = ERROR_CODES.get(code)
    if cls is None:
        err = ServeError(message)
        err.code = code
        return err
    return cls(message)
