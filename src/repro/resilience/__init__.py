"""Fault injection and resilient execution (`repro.resilience`).

Three legs, threaded through every execution layer:

* **Validation boundary** (:mod:`repro.resilience.validation`) —
  :func:`validate_graph` runs a structural census (index ranges,
  (row, col) ordering, duplicate edges, empty rows, finite features) at
  the edges of the system and raises typed
  :class:`~repro.errors.GraphValidationError`\\ s instead of letting
  scipy/NumPy tracebacks surface from kernel internals.
* **Fault injector** (:mod:`repro.resilience.faults`) — a seeded,
  ``REPRO_FAULT_PROFILE``/``REPRO_FAULT_SEED``-configurable injector
  that poisons plan-cache entries, corrupts training losses, fails
  serve batches and disturbs the network transport —
  deterministically, so chaos CI failures replay locally.
* **Recovery paths** — checksum-verified plan-cache entries with
  invalidate-and-recompute in :mod:`repro.core.plancache`; epoch
  checkpoints, resume, and a NaN/Inf loss guard with rollback in
  :mod:`repro.nn.trainer` (state capture in
  :mod:`repro.resilience.checkpoint`); degrade-to-unbatched with
  per-request retries in :mod:`repro.serve.service`.

Every recovery emits ``resilience.*`` obs events
(``fault_injected`` / ``plan_invalidated`` / ``checkpoint_restore``),
surfaced by ``python -m repro.obs summary``.
"""

from repro.resilience.checkpoint import CheckpointManager, TrainSnapshot
from repro.resilience.faults import (
    PROFILES,
    FaultInjector,
    fault_profile,
    get_injector,
    no_faults,
    parse_profile,
)
from repro.resilience.validation import (
    ValidationReport,
    ensure_structure_validated,
    validate_graph,
)

__all__ = [
    "CheckpointManager",
    "TrainSnapshot",
    "PROFILES",
    "FaultInjector",
    "fault_profile",
    "get_injector",
    "no_faults",
    "parse_profile",
    "ValidationReport",
    "ensure_structure_validated",
    "validate_graph",
]
