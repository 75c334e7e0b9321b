"""Wall-clock timing helper.

Simulated-GPU time comes from :mod:`repro.gpusim.cost`; this module only
measures host-side wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Accumulating wall-clock timer usable as a context manager."""

    elapsed: float = 0.0
    _start: float | None = field(default=None, repr=False)

    def __enter__(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError(
                "Timer is not re-entrant: already started; exit the running "
                "interval (or call reset()) before entering again"
            )
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._start is None:
            raise RuntimeError("Timer.__exit__ without a matching __enter__")
        self.elapsed += time.perf_counter() - self._start
        self._start = None

    def reset(self) -> None:
        self.elapsed = 0.0
        self._start = None
