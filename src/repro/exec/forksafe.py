"""Fork-safety hooks for the execution stack.

A ``fork()`` from a threaded process (the inference service runs
launches on executor threads) hands the child locks in whatever state
the parent's threads left them: the plan-cache ``RLock`` (or the fault
injector's lock) may have been held by a thread that no longer exists,
and the obs span stack points at spans whose ``__exit__`` will only
ever run in the parent.  Any of these deadlocks or mis-parents the
child's first launch.

:func:`register_fork_hooks` installs one ``os.register_at_fork``
``after_in_child`` hook (idempotent; imported as a side effect of
``repro.exec``) that resets all of it:

* the plan cache gets a fresh ``RLock`` (entries are plain data and
  remain valid);
* the fault injector's locks are replaced, schedules kept;
* the obs span contextvar is cleared.
"""

from __future__ import annotations

import os

_registered = False


def _after_fork_in_child() -> None:
    from repro.core import plancache
    from repro.obs import spans
    from repro.resilience import faults

    plancache.reset_lock_after_fork()
    faults.reset_locks_after_fork()
    spans.reset_context_after_fork()


def register_fork_hooks() -> None:
    """Install the after-fork reset hook once (no-op where fork absent)."""
    global _registered
    if _registered or not hasattr(os, "register_at_fork"):
        return
    os.register_at_fork(after_in_child=_after_fork_in_child)
    _registered = True
