"""Seeded, env-configurable fault injector for chaos testing.

Real SpMM systems meet input irregularity and infrastructure flakiness
head-on; this module lets the reproduction *manufacture* both on
demand, deterministically, so every recovery path in the execution
stack is exercised in CI rather than discovered in production.

A :class:`FaultInjector` owns a per-site firing schedule derived from a
``(seed, site, occurrence)`` hash: the k-th time a site is consulted it
fires iff ``blake2b(f"{seed}:{site}:{k}") / 2**64 < rate``.  The
decision sequence of each site is therefore a pure function of the
seed — re-running with the same ``REPRO_FAULT_SEED`` replays the same
number of faults at the same per-site occurrences, so a failure seen in
a chaos CI leg reproduces locally.

Bursts are bounded: after :attr:`~FaultInjector.max_burst` consecutive
fires of one site the next consult is forced quiet.  Injected faults
are thereby *transient by construction* — the property every recovery
path relies on (a bounded retry/rollback budget of ``max_burst``
attempts always reaches a fault-free replay), mirroring how real chaos
harnesses bound blast radius so recovery is testable at all.

Sites wired through the stack (all opt-in via profile rates):

========================  =====================================================
``plancache.poison``      flip a plan-cache entry's checksum so the next
                          lookup detects corruption and recomputes
``train.loss_corrupt``    corrupt the epoch loss to NaN (exercises the
                          trainer's checkpoint-rollback guard)
``serve.batch_fail``      fail a micro-batched serve launch (exercises the
                          inference service's degrade-to-unbatched path and
                          per-request retry budget)
``serve.deadline_storm``  collapse an arriving transport request's deadline
                          so the scheduler sheds it pre-launch (typed
                          :class:`~repro.errors.DeadlineExceededError`)
``net.conn_drop``         abort the connection instead of writing a serve
                          response (exercises client reconnect + idempotent
                          retry against the server's dedup table)
``net.partial_write``     write half a response frame, then abort (the
                          client must treat a torn frame as a lost
                          connection, never parse garbage)
``net.slow_peer``         stall a response write (latency chaos: shuffles
                          batch composition and backoff timing)
========================  =====================================================

Configuration::

    REPRO_FAULT_PROFILE=chaos          # named profile, or ""/none = off
    REPRO_FAULT_PROFILE="plancache.poison=0.5,train.loss_corrupt=1"
    REPRO_FAULT_SEED=1337              # replay seed (default 0)

Every fired fault increments ``resilience.fault_injected`` and emits a
``resilience.fault_injected`` obs event carrying the site and
occurrence, so traces record exactly which faults a run survived.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading

from repro import obs, settings
from repro.errors import ConfigError, FaultInjectedError

#: Named profiles.  ``chaos`` is the CI leg: every site armed at rates
#: that fire within a quick sweep + short training run but leave the
#: vast majority of operations untouched.
PROFILES: dict[str, dict[str, float]] = {
    "none": {},
    "chaos": {
        "plancache.poison": 0.03,
        "train.loss_corrupt": 0.45,
        "serve.batch_fail": 0.2,
        "serve.deadline_storm": 0.05,
        "net.conn_drop": 0.08,
        "net.partial_write": 0.05,
        "net.slow_peer": 0.1,
    },
    "storm": {
        "plancache.poison": 0.2,
        "train.loss_corrupt": 0.8,
        "serve.batch_fail": 0.5,
        "serve.deadline_storm": 0.15,
        "net.conn_drop": 0.25,
        "net.partial_write": 0.15,
        "net.slow_peer": 0.3,
    },
}


def parse_profile(spec: str | None) -> dict[str, float]:
    """Resolve a profile spec: a name, ``site=rate`` pairs, or off."""
    if spec is None or spec.strip() == "":
        return {}
    spec = spec.strip()
    if spec in PROFILES:
        return dict(PROFILES[spec])
    if "=" not in spec:
        raise ConfigError(
            f"REPRO_FAULT_PROFILE={spec!r} is neither a known profile "
            f"{sorted(PROFILES)} nor a 'site=rate,...' spec"
        )
    rates: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        site, _, raw = part.partition("=")
        try:
            rate = float(raw)
        except ValueError:
            raise ConfigError(f"bad fault rate {raw!r} for site {site!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"fault rate for {site!r} must be in [0, 1], got {rate}")
        rates[site.strip()] = rate
    return rates


#: default cap on consecutive fires of one site — keep this no larger
#: than the smallest recovery budget in the stack (the trainer's
#: ``MAX_ROLLBACKS`` and the service's per-request retries) so every
#: injected failure is recoverable by design.
DEFAULT_MAX_BURST = 2


class FaultInjector:
    """Deterministic per-site fault scheduler (thread-safe)."""

    def __init__(
        self,
        rates: dict[str, float] | None = None,
        seed: int = 0,
        *,
        max_burst: int = DEFAULT_MAX_BURST,
    ):
        self.rates = dict(rates or {})
        self.seed = int(seed)
        self.max_burst = int(max_burst)
        self._lock = threading.Lock()
        self._occurrences: dict[str, int] = {}
        self._burst: dict[str, int] = {}
        self.fired: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return any(rate > 0 for rate in self.rates.values())

    def armed(self, site: str) -> bool:
        """Is this site configured to ever fire?"""
        return self.rates.get(site, 0.0) > 0.0

    def _decide(self, site: str, occurrence: int) -> bool:
        digest = hashlib.blake2b(
            f"{self.seed}:{site}:{occurrence}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2**64 < self.rates[site]

    def fire(self, site: str, **attrs) -> bool:
        """Consume one occurrence of ``site``; True when the fault fires.

        Each call advances the site's occurrence counter, so a retry of
        the surrounding operation consults a *new* occurrence; after
        ``max_burst`` consecutive fires the next consult is forced
        quiet, so injected faults are transient by construction and a
        bounded retry/rollback always reaches a fault-free attempt.
        """
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        with self._lock:
            occurrence = self._occurrences.get(site, 0)
            self._occurrences[site] = occurrence + 1
            fired = self._decide(site, occurrence)
            if fired and self._burst.get(site, 0) >= self.max_burst:
                fired = False  # burst bound: force a quiet consult
            self._burst[site] = self._burst.get(site, 0) + 1 if fired else 0
            if fired:
                self.fired[site] = self.fired.get(site, 0) + 1
        if fired:
            obs.event("resilience.fault_injected", site=site,
                      occurrence=occurrence, **attrs)
        return fired

    def maybe_raise(self, site: str, **attrs) -> None:
        """Raise :class:`FaultInjectedError` when the site fires."""
        if self.fire(site, **attrs):
            raise FaultInjectedError(f"injected fault at {site} ({attrs})")


_default: FaultInjector | None = None
_default_lock = threading.Lock()


def _from_env() -> FaultInjector:
    env = settings.get()
    seed = 0 if env.fault_seed is None else env.fault_seed
    return FaultInjector(parse_profile(env.fault_profile), seed)


def get_injector() -> FaultInjector:
    """The process-global injector every instrumented site consults."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = _from_env()
    return _default


def reset_locks_after_fork() -> None:
    """Replace injector locks in a forked child (they may be mid-held).

    Schedules are kept — a child that re-runs work sees the same
    deterministic fault sequence as its parent would have.  Registered
    by :mod:`repro.exec.forksafe`.
    """
    global _default_lock
    _default_lock = threading.Lock()
    if _default is not None:
        _default._lock = threading.Lock()


@contextlib.contextmanager
def fault_profile(spec: str | None, seed: int = 0):
    """Temporarily swap in a profile (tests); restores the previous injector."""
    global _default
    with _default_lock:
        prev = _default
        _default = FaultInjector(parse_profile(spec), seed)
    try:
        yield _default
    finally:
        with _default_lock:
            _default = prev


@contextlib.contextmanager
def no_faults():
    """Temporarily disable injection entirely (counter-sensitive tests)."""
    with fault_profile(None) as injector:
        yield injector
