"""Inference-service configuration (``REPRO_SERVE_*`` environment).

Every knob of :class:`~repro.serve.service.InferenceService` resolves
here, from the environment with typed validation, so a deployment is
tunable without code changes and a misconfiguration fails loudly at
startup rather than as mystery latency:

===================================  =========  ===============================
``REPRO_SERVE_MAX_BATCH``            32         max requests fused per launch
``REPRO_SERVE_MAX_DELAY_US``         2000       micro-batcher linger budget
``REPRO_SERVE_QUEUE_DEPTH``          256        admission bound (shed beyond)
``REPRO_SERVE_TIMEOUT_MS``           10000      default deadline (0 = none)
``REPRO_SERVE_RETRIES``              2          unbatched retry budget
``REPRO_SERVE_BATCHING``             1          0/false = serve one-at-a-time
``REPRO_SERVE_ADAPTIVE``             0          adapt batch cap to queue depth
``REPRO_SERVE_ADAPTIVE_ALPHA``       0.2        EWMA smoothing of queue depth
``REPRO_SERVE_TUNED``                0          autotune the fused SpMM config
``REPRO_SERVE_DEFAULT_PRIORITY``     standard   class for requests that name none
``REPRO_SERVE_BREAKER_THRESHOLD``    3          consecutive batch failures to trip
``REPRO_SERVE_BREAKER_RESET_MS``     1000       open-state cooldown before probing
===================================  =========  ===============================

The retry default tracks the fault injector's burst bound: with
``retries=2`` a degraded request gets three attempts while
``max_burst=2`` caps consecutive ``serve.batch_fail`` fires, so every
injected fault sequence leaves at least one fault-free attempt.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.errors import ConfigError

_ENV_PREFIX = "REPRO_SERVE_"


def _env_int(name: str, default: int, *, minimum: int = 1) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigError(
            f"{_ENV_PREFIX}{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise ConfigError(f"{_ENV_PREFIX}{name} must be >= {minimum}, got {value}")
    return value


def _env_float(name: str, default: float, *, minimum: float = 0.0) -> float:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise ConfigError(
            f"{_ENV_PREFIX}{name} must be a number, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"{_ENV_PREFIX}{name} must be finite, got {raw!r}")
    if value < minimum:
        raise ConfigError(f"{_ENV_PREFIX}{name} must be >= {minimum}, got {value}")
    return value


def _env_str(name: str, default: str) -> str:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None or raw.strip() == "":
        return default
    return raw.strip()


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None or raw.strip() == "":
        return default
    value = raw.strip().lower()
    if value in ("1", "true", "on", "yes"):
        return True
    if value in ("0", "false", "off", "no"):
        return False
    raise ConfigError(
        f"{_ENV_PREFIX}{name} must be one of 1/true/on/yes or 0/false/off/no, "
        f"got {raw!r}"
    )


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
    #: False serves every request as its own launch (the A/B baseline)
    batching: bool = True
    #: adapt the effective batch cap to the observed queue depth (EWMA
    #: controller in the drain loop); off = the static ``max_batch`` cap
    adaptive: bool = False
    #: EWMA smoothing factor for the adaptive controller, in (0, 1]
    adaptive_alpha: float = 0.2
    #: autotune the fused launch's GNNOne config per batch width
    #: (``core.autotune`` — honors ``REPRO_TUNE`` for learned search)
    tuned: bool = False
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
        if not (0.0 < self.adaptive_alpha <= 1.0):
            raise ConfigError(
                f"adaptive_alpha must be in (0, 1], got {self.adaptive_alpha}"
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
        values = {
            "max_batch": _env_int("MAX_BATCH", cls.max_batch),
            "max_delay_us": _env_int("MAX_DELAY_US", cls.max_delay_us, minimum=0),
            "queue_depth": _env_int("QUEUE_DEPTH", cls.queue_depth),
            "timeout_ms": _env_float("TIMEOUT_MS", cls.timeout_ms),
            "retries": _env_int("RETRIES", cls.retries, minimum=0),
            "batching": _env_bool("BATCHING", cls.batching),
            "adaptive": _env_bool("ADAPTIVE", cls.adaptive),
            "adaptive_alpha": _env_float(
                "ADAPTIVE_ALPHA", cls.adaptive_alpha, minimum=1e-6
            ),
            "tuned": _env_bool("TUNED", cls.tuned),
            "default_priority": _env_str(
                "DEFAULT_PRIORITY", cls.default_priority
            ),
            "breaker_threshold": _env_int(
                "BREAKER_THRESHOLD", cls.breaker_threshold
            ),
            "breaker_reset_ms": _env_float(
                "BREAKER_RESET_MS", cls.breaker_reset_ms
            ),
        }
        values.update(overrides)
        return cls(**values)
