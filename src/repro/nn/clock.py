"""Simulated-GPU time accounting for end-to-end training.

The trainer runs real NumPy numerics but *charges* every operation's
simulated device time to the active :class:`SimClock`: sparse kernels
charge their cost-model time, dense ops (Linear, ReLU, softmax, ...)
charge the roofline costs from :mod:`repro.gpusim.dense` — both systems
pay identical dense costs, so end-to-end speedups dilute exactly as in
the paper (6x kernels -> ~2-4x training).  Dense costs are priced on
the A100, the device the sparse kernels default to.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field

from repro.gpusim.dense import elementwise_cost, gemm_cost
from repro.gpusim.device import A100


@dataclass
class SimClock:
    """Accumulates simulated microseconds, bucketed by op name."""

    total_us: float = 0.0
    buckets: dict[str, float] = field(default_factory=dict)
    #: when True, element-wise ops are free (kernel fusion, as in dgNN)
    fused_elementwise: bool = False

    def add(self, name: str, us: float) -> None:
        self.total_us += us
        self.buckets[name] = self.buckets.get(name, 0.0) + us

    def reset(self) -> None:
        self.total_us = 0.0
        self.buckets.clear()


_current: contextvars.ContextVar[SimClock | None] = contextvars.ContextVar(
    "repro_sim_clock", default=None
)


def current_clock() -> SimClock | None:
    return _current.get()


@contextlib.contextmanager
def simulate(clock: SimClock):
    """Make ``clock`` the charge target for the enclosed operations."""
    token = _current.set(clock)
    try:
        yield clock
    finally:
        _current.reset(token)


def charge(name: str, us: float) -> None:
    clock = current_clock()
    if clock is not None:
        clock.add(name, us)


def charge_gemm(m: int, n: int, k: int, *, count: int = 1, name: str = "gemm") -> None:
    clock = current_clock()
    if clock is not None:
        clock.add(name, count * gemm_cost(A100, m, n, k).time_us)


def charge_elementwise(
    num_elements: int, *, reads: int = 1, writes: int = 1, count: int = 1, name: str = "eltwise"
) -> None:
    clock = current_clock()
    if clock is not None and not clock.fused_elementwise:
        clock.add(
            name,
            count
            * elementwise_cost(A100, num_elements, reads=reads, writes=writes).time_us,
        )

