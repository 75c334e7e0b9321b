"""Inference-service configuration.

Every knob of :class:`~repro.serve.service.InferenceService` is a field
of :class:`ServeConfig`, and its constructor is the one way to set
them: ``InferenceService(graph)`` runs on ``ServeConfig()``, and a
caller that wants other values passes ``config=ServeConfig(...)``.  A
bad value raises :class:`~repro.errors.ConfigError` when the config is
built, so a misconfiguration fails at startup rather than as mystery
latency.  Requests that name no priority class get
:data:`~repro.serve.scheduler.DEFAULT_PRIORITY`.

The retry default tracks the fault injector's burst bound: with
``retries=2`` a degraded request gets three attempts while
``max_burst=2`` caps consecutive ``serve.batch_fail`` fires, so every
injected fault sequence leaves at least one fault-free attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ServeConfig:
    """Validated batching / admission / resilience policy for one service."""

    #: requests fused into one launch before the batcher stops collecting
    max_batch: int = 32
    #: how long the batcher lingers for stragglers once it holds a request
    max_delay_us: int = 2000
    #: bounded admission queue; a full queue load-sheds with
    #: :class:`~repro.errors.ServiceOverloadedError`
    queue_depth: int = 256
    #: per-request deadline; 0 disables (requests wait forever)
    timeout_ms: float = 10_000.0
    #: per-request attempts after a failed batch = 1 + retries
    retries: int = 2
    #: consecutive total-batch failures that trip the circuit breaker
    breaker_threshold: int = 3
    #: open-breaker cooldown before a half-open probe is admitted
    breaker_reset_ms: float = 1000.0

    def __post_init__(self) -> None:
        if self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset_ms < 0:
            raise ConfigError(
                f"breaker_reset_ms must be >= 0, got {self.breaker_reset_ms}"
            )
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_us < 0:
            raise ConfigError(f"max_delay_us must be >= 0, got {self.max_delay_us}")
        if self.queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.timeout_ms < 0:
            raise ConfigError(f"timeout_ms must be >= 0, got {self.timeout_ms}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
