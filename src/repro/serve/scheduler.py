"""Priority/deadline-aware request scheduler for the inference service.

The PR 8 drain policy was a plain FIFO ``asyncio.Queue``: fair, but
blind — a bulk analytics scan queued ahead of an interactive lookup
holds the lookup hostage, and a request whose deadline already passed
still burns a slot in a fused launch nobody will wait for.  This module
replaces the FIFO with a small scheduler:

* **Priority classes** (:data:`PRIORITY_CLASSES`): ``interactive`` >
  ``standard`` > ``bulk``.  Strictly ordered — a lower class runs only
  when every higher class is empty.  Three classes cover the serving
  mixes AutoSAGE-style traffic shifts between (latency-bound lookups,
  default traffic, throughput-bound scans) without inventing a general
  weight system nobody can configure.
* **EDF within a class**: among equals, the request whose deadline
  expires first launches first (no-deadline requests sort last, FIFO
  among themselves via a monotone sequence number).
* **Expiry shedding**: :meth:`DeadlineScheduler.pop_expired` removes
  every already-expired request *before* launch so the drain loop can
  fail them with :class:`~repro.errors.DeadlineExceededError` — typed,
  pre-launch, zero kernel work spent on answers nobody is waiting for.

Admission stays bounded (``maxsize``) across all classes together, so
backpressure semantics are unchanged from the FIFO it replaces.  The
scheduler is event-loop-local like the queue it replaces: only the
service's loop touches it, so no locking beyond asyncio's cooperative
scheduling is needed.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.service import _Request

import asyncio

#: priority class name -> strict rank (lower runs first).
PRIORITY_CLASSES: dict[str, int] = {"interactive": 0, "standard": 1, "bulk": 2}

#: rank -> name, for spans and events.
PRIORITY_NAMES: tuple[str, ...] = tuple(
    sorted(PRIORITY_CLASSES, key=PRIORITY_CLASSES.get)
)

DEFAULT_PRIORITY = "standard"


def resolve_priority(priority: str | None) -> int:
    """Validate a priority class name into its strict rank."""
    name = DEFAULT_PRIORITY if priority is None or priority == "" else priority
    if not isinstance(name, str) or name not in PRIORITY_CLASSES:
        raise ConfigError(
            f"unknown priority {priority!r}; expected one of "
            f"{sorted(PRIORITY_CLASSES)}"
        )
    return PRIORITY_CLASSES[name]


def check_deadline(deadline_ms: float | None) -> None:
    """``ConfigError`` unless ``deadline_ms`` is ``None`` or a finite number.

    NaN would poison the EDF heap's ordering, and ``True`` is an int.
    """
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, numbers.Real)
        or not math.isfinite(deadline_ms)
    ):
        raise ConfigError(f"deadline_ms must be a finite number, got {deadline_ms!r}")


class SchedulerClosed(Exception):
    """Internal sentinel: ``get`` woke up on a closed scheduler."""


class DeadlineScheduler:
    """Bounded multi-class EDF queue (drop-in for ``asyncio.Queue``).

    Entries are ``(deadline, seq, request)`` heaps per priority class;
    ``deadline`` is an absolute ``perf_counter`` second (``inf`` when
    the request has none), ``seq`` breaks ties FIFO.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ConfigError(f"scheduler maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._heaps: tuple[list, ...] = tuple([] for _ in PRIORITY_NAMES)
        self._seq = itertools.count()
        self._size = 0
        self._closed = False
        self._wakeup: asyncio.Event = asyncio.Event()

    # -------------------------------------------------------------- state

    def qsize(self) -> int:
        return self._size

    def full(self) -> bool:
        return self._size >= self.maxsize

    def close(self) -> None:
        """Stop the consumer: wakes a blocked :meth:`get` permanently."""
        self._closed = True
        self._wakeup.set()

    # ---------------------------------------------------------- producers

    def put_nowait(self, request: "_Request") -> None:
        """Admit one request; raises ``asyncio.QueueFull`` when bounded out."""
        if self.full():
            raise asyncio.QueueFull
        deadline = request.deadline_p if request.deadline_p is not None else math.inf
        heapq.heappush(
            self._heaps[request.priority], (deadline, next(self._seq), request)
        )
        self._size += 1
        self._wakeup.set()

    # ---------------------------------------------------------- consumers

    def get_nowait(self) -> "_Request":
        """Highest-priority, earliest-deadline request; ``QueueEmpty`` if none."""
        for heap in self._heaps:
            if heap:
                _, _, request = heapq.heappop(heap)
                self._size -= 1
                if self._size == 0:
                    self._wakeup.clear()
                return request
        raise asyncio.QueueEmpty

    async def get(self) -> "_Request":
        """Block until a request is available (or :class:`SchedulerClosed`).

        A closed scheduler raises immediately even when requests remain
        queued: the consumer must not start new batches after shutdown
        begins — whatever is still queued gets a typed rejection from
        the drain path instead.
        """
        while True:
            if self._closed:
                raise SchedulerClosed
            try:
                return self.get_nowait()
            except asyncio.QueueEmpty:
                pass
            await self._wakeup.wait()

    def pop_expired(self, now_p: float) -> list["_Request"]:
        """Remove and return every request whose deadline already passed.

        Heaps are deadline-ordered, so each class pays only for its
        expired prefix — the scan stops at the first live entry.
        """
        expired: list["_Request"] = []
        for heap in self._heaps:
            while heap and heap[0][0] < now_p:
                _, _, request = heapq.heappop(heap)
                self._size -= 1
                expired.append(request)
        if self._size == 0 and not self._closed:
            self._wakeup.clear()
        return expired

    def drain_pending(self) -> Iterator["_Request"]:
        """Remove and yield everything still queued (shutdown rejection)."""
        for heap in self._heaps:
            while heap:
                _, _, request = heapq.heappop(heap)
                self._size -= 1
                yield request
