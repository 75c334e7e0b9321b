"""Inference-service configuration.

Every knob of :class:`~repro.serve.service.InferenceService` is a field
of :class:`ServeConfig`.  :meth:`ServeConfig.from_env` fills them from
the ``REPRO_SERVE_*`` rows of :mod:`repro.settings` (names, defaults
and parsing live there; ``python -m repro.settings`` lists them), so a
deployment is tunable without code changes and a misconfiguration
fails loudly at startup rather than as mystery latency.

The retry default tracks the fault injector's burst bound: with
``retries=2`` a degraded request gets three attempts while
``max_burst=2`` caps consecutive ``serve.batch_fail`` fires, so every
injected fault sequence leaves at least one fault-free attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import settings
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
    #: priority class assigned to requests that don't name one
    #: (``interactive`` > ``standard`` > ``bulk``)
    default_priority: str = "standard"
    #: consecutive total-batch failures that trip the circuit breaker
    breaker_threshold: int = 3
    #: open-breaker cooldown before a half-open probe is admitted
    breaker_reset_ms: float = 1000.0

    def __post_init__(self) -> None:
        from repro.serve.scheduler import resolve_priority

        resolve_priority(self.default_priority)  # raises ConfigError on junk
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

    @classmethod
    def from_env(cls, **overrides) -> "ServeConfig":
        """Resolve from ``REPRO_SERVE_*``; keyword overrides win."""
        env = settings.get()
        values = {
            "max_batch": env.serve_max_batch,
            "max_delay_us": env.serve_max_delay_us,
            "queue_depth": env.serve_queue_depth,
            "timeout_ms": env.serve_timeout_ms,
            "retries": env.serve_retries,
            "default_priority": env.serve_default_priority,
            "breaker_threshold": env.serve_breaker_threshold,
            "breaker_reset_ms": env.serve_breaker_reset_ms,
        }
        values.update(overrides)
        return cls(**values)
