"""Circuit breaker: fast-fail admission control after repeated batch failures.

A service whose every batch is failing (poisoned resident state, a
dependency down, a fault storm) should not keep accepting work it will
burn a launch attempt on — queue time plus a doomed execution is the
slowest possible "no".  The breaker watches batch outcomes and trips to
**fast-fail**: new requests are rejected at admission with a typed
:class:`~repro.errors.CircuitOpenError` carrying ``retry_after_ms``, so
clients back off intelligently instead of piling on.

Classic three-state machine:

* ``closed`` — healthy.  Counts *consecutive* failed batches; reaching
  ``fail_threshold`` trips to open.  Any successful batch resets the
  streak.
* ``open`` — fast-failing.  After ``reset_after_ms`` the next admission
  attempt transitions to half-open and is let through as the probe.
* ``half_open`` — exactly one probe batch in flight.  Probe success
  closes the breaker; probe failure re-opens it (restarting the
  cooldown clock).

The breaker is event-loop-local like the service that owns it; time is
injectable (``clock``) so tests drive transitions deterministically.
Every transition emits a ``serve.breaker`` obs event, so a trace shows
exactly when — and for how long — the service was lame.
"""

from __future__ import annotations

import time
from typing import Callable

from repro import obs
from repro.errors import ConfigError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker guarding the service's admission edge."""

    def __init__(
        self,
        *,
        fail_threshold: int = 3,
        reset_after_ms: float = 1000.0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if fail_threshold < 1:
            raise ConfigError(
                f"breaker fail_threshold must be >= 1, got {fail_threshold}"
            )
        if reset_after_ms < 0:
            raise ConfigError(
                f"breaker reset_after_ms must be >= 0, got {reset_after_ms}"
            )
        self.fail_threshold = int(fail_threshold)
        self.reset_after_ms = float(reset_after_ms)
        self._clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0
        #: cumulative transition counts, exported by health probes
        self.transitions: dict[str, int] = {"open": 0, "half_open": 0, "close": 0}

    # ----------------------------------------------------------- queries

    def retry_after_ms(self) -> float:
        """Cooldown remaining before the breaker would half-open."""
        if self.state != OPEN:
            return 0.0
        elapsed_ms = (self._clock() - self._opened_at) * 1e3
        return max(0.0, self.reset_after_ms - elapsed_ms)

    def allow(self) -> bool:
        """May a new request be admitted right now?

        ``closed``/``half_open`` admit (half-open admissions are the
        probe traffic); ``open`` admits only once the cooldown elapsed,
        transitioning to half-open as it does.
        """
        if self.state == OPEN:
            if self.retry_after_ms() > 0.0:
                return False
            self._transition(HALF_OPEN, "cooldown elapsed; probing")
        return True

    # ----------------------------------------------------------- outcomes

    def record_success(self) -> None:
        """A batch produced at least one good response."""
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._transition(CLOSED, "probe succeeded")

    def record_failure(self) -> None:
        """A batch failed outright (every member errored)."""
        if self.state == HALF_OPEN:
            self._transition(OPEN, "probe failed")
            return
        self.consecutive_failures += 1
        if self.state == CLOSED and self.consecutive_failures >= self.fail_threshold:
            self._transition(
                OPEN, f"{self.consecutive_failures} consecutive batch failure(s)"
            )

    # ----------------------------------------------------------- internal

    def _transition(self, state: str, reason: str) -> None:
        previous, self.state = self.state, state
        if state == OPEN:
            self._opened_at = self._clock()
            self.consecutive_failures = 0
            self.transitions["open"] += 1
        elif state == HALF_OPEN:
            self.transitions["half_open"] += 1
        else:
            self.transitions["close"] += 1
        obs.event("serve.breaker", state=state, previous=previous, reason=reason)

    def snapshot(self) -> dict:
        """Health-probe view of the breaker."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "retry_after_ms": self.retry_after_ms(),
            "transitions": dict(self.transitions),
        }
