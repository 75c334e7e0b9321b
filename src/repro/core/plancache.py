"""Structural plan/cost cache: stop re-simulating identical launches.

The cost model's output is *value-independent*: a :class:`CostReport`
depends only on the graph topology (which NZE goes to which warp), the
kernel and its configuration, the feature length, and the device —
never on the numeric contents of ``edge_values`` or ``X``.  Every term
the model prices (sectors, load instructions, ILP, occupancy, atomics,
imbalance) is derived from index arrays and launch shapes.  Training
loops therefore repeat a handful of distinct *launch structures*
thousands of times: a 200-epoch GCN run issues the same forward SpMM,
backward SpMM and backward SDDMM on the same topology every epoch.

This module memoizes the simulation side of a kernel call — the
recorded :class:`~repro.gpusim.trace.KernelTrace` and the priced
:class:`~repro.gpusim.cost.CostReport` that
:meth:`repro.kernels.base._Kernel.simulate` returns — keyed on a
collision-safe structural fingerprint:

    (COOMatrix.structure_token, kernel cache token, kind,
     feature_length, DeviceSpec)

``structure_token`` hashes the topology bytes (see
:meth:`repro.sparse.coo.COOMatrix.structure_token`); the kernel token
carries the full configuration (not just the display name); the frozen
``DeviceSpec`` participates directly so two devices sharing a name but
differing in any architectural constant can never collide.

Every launch goes through this cache: a hit replays the cached
cost/trace, and a full launch then computes fresh numerics (see
:mod:`repro.kernels.base`), so outputs always track the actual input
values.  Kernel-launch failures are not cached — an invalid
configuration re-raises from the real pipeline every time.
:func:`clear_plan_cache` is how a caller gets a fresh simulation.

A second, much smaller map (:meth:`PlanCache.memo_lookup` /
:meth:`PlanCache.memo_store`) holds value results keyed on operand
*identity* — the engine output every kernel's ``compute`` returns
(:meth:`repro.kernels.base._Kernel.compute`), shared by all kernels
of a kind.  Each slot keeps its operand objects alive and re-checks
them with ``is``, so an id can never be recycled into a false hit; the
caller decides what may be memoized.  It counts its own hits and
misses (``memo_hits`` / ``memo_misses``), as the launch map does
(``hits`` / ``misses``).  :func:`clear_plan_cache` empties
both maps.

Integrity: whenever the fault injector's ``plancache.poison`` site is
armed, every stored entry carries a content checksum that ``lookup``
re-verifies; a mismatch invalidates the entry, emits a
``resilience.plan_invalidated`` event and falls through to a miss so the
caller recomputes from the real pipeline instead of replaying
corrupted state.  Otherwise the checksum machinery is entirely
skipped, keeping the warm path at one dict probe.
"""

from __future__ import annotations

import pickle
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro import obs
from repro.gpusim.cost import CostReport
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import KernelTrace

#: Entries kept per process.  Each entry holds one trace + cost report
#: (a few arrays of per-warp counters); benchmarks sweep at most a few
#: hundred distinct (kernel, dataset, F) points.
DEFAULT_CAPACITY = 512

#: Value-memo slots per process.  Each holds one kernel output (up to an
#: ``(N, F)`` dense block), shared by every kernel of its kind; a sweep
#: pass revisits three operand sets.
MEMO_CAPACITY = 8

@dataclass(frozen=True)
class CachedLaunch:
    """The structural half of a kernel invocation, ready to replay."""

    cost: CostReport
    trace: KernelTrace

    @property
    def time_us(self) -> float:
        return self.cost.time_us


#: (structure_token, kernel token, kind, feature_length, device)
PlanKey = tuple[str, Hashable, str, int, DeviceSpec]


def _entry_checksum(entry: object) -> int | None:
    """CRC32 of the pickled entry; ``None`` when it cannot be fingerprinted."""
    try:
        return zlib.crc32(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # unpicklable custom entry: integrity check unavailable
        return None


def _integrity_checks_active() -> bool:
    """Checksum entries only when someone can observe the verification.

    An armed ``plancache.poison`` fault site implies a chaos run that
    must be able to detect its own corruption.  Imported lazily to keep
    the default lookup path free of any resilience machinery.
    """
    from repro.resilience import faults

    return faults.get_injector().armed("plancache.poison")


@dataclass
class _Slot:
    """Internal cache slot: the entry plus its stored content checksum."""

    entry: object
    checksum: int | None = None


def _key_kind(key: PlanKey) -> str:
    """The launch-kind tag of a key (index 2 of the canonical 5-tuple)."""
    return str(key[2])


class PlanCache:
    """LRU map from structural launch keys to cached cost/trace pairs.

    Thread-safe: the inference service (:mod:`repro.serve`) launches
    kernels from its executor threads while other threads may do the
    same, so every lookup/store/evict runs under one re-entrant lock.  ``move_to_end``
    during a concurrent ``store``'s eviction sweep would otherwise
    corrupt the ``OrderedDict``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanKey, _Slot]" = OrderedDict()
        self._memo: "OrderedDict[Hashable, tuple[tuple, object]]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.memo_hits = 0
        self.memo_misses = 0

    def lookup(self, key: PlanKey) -> CachedLaunch | None:
        """Fetch a cached launch, counting the hit or miss.

        When integrity checks are active the entry's content checksum is
        re-verified first; a corrupted slot is invalidated and reported
        as a miss, so the caller transparently recomputes.
        """
        verify = _integrity_checks_active()
        with self._lock:
            slot = self._entries.get(key)
            if slot is not None and verify and slot.checksum is not None:
                from repro.resilience import faults

                if faults.get_injector().fire("plancache.poison", kind=_key_kind(key)):
                    slot.checksum ^= 0xFFFFFFFF  # simulated bit-rot
                if _entry_checksum(slot.entry) != slot.checksum:
                    del self._entries[key]
                    self.invalidations += 1
                    slot = None
                    obs.event("resilience.plan_invalidated", kind=_key_kind(key),
                              reason="checksum-mismatch")
            if slot is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return slot.entry

    def store(self, key: PlanKey, entry: CachedLaunch) -> None:
        checksum = _entry_checksum(entry) if _integrity_checks_active() else None
        with self._lock:
            self._entries[key] = _Slot(entry, checksum)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def memo_lookup(self, key: Hashable, operands: tuple) -> object | None:
        """The value stored under ``key`` for these very operand objects."""
        with self._lock:
            slot = self._memo.get(key)
            if slot is None or any(a is not b for a, b in zip(slot[0], operands)):
                self.memo_misses += 1
                return None
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return slot[1]

    def memo_store(self, key: Hashable, operands: tuple, value: object) -> None:
        """Memoize ``value`` for ``operands``, evicting beyond :data:`MEMO_CAPACITY`."""
        with self._lock:
            self._memo[key] = (operands, value)
            self._memo.move_to_end(key)
            while len(self._memo) > MEMO_CAPACITY:
                self._memo.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._memo.clear()
            self.hits = 0
            self.misses = 0
            self.invalidations = 0
            self.memo_hits = 0
            self.memo_misses = 0


_default = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-global cache every kernel ``__call__`` consults."""
    return _default


def clear_plan_cache() -> None:
    """Drop all cached launches and memoized values; reset hit/miss accounting."""
    _default.clear()


def reset_lock_after_fork() -> None:
    """Give the global cache a fresh lock in a forked child.

    A fork can land while another thread holds the cache ``RLock``; the
    child inherits it half-held and would deadlock on first lookup.
    Entries themselves are plain data and stay valid.  Registered by
    :mod:`repro.exec.forksafe`.
    """
    _default._lock = threading.RLock()


def plan_key(
    structure_token: str,
    kernel_token: Hashable,
    kind: str,
    feature_length: int,
    device: DeviceSpec,
) -> PlanKey:
    """Assemble the canonical cache key for one launch structure."""
    return (
        structure_token,
        kernel_token,
        kind,
        int(feature_length),
        device,
    )
