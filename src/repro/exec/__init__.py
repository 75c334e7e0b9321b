"""repro.exec — the host-side numerics behind every kernel launch.

:func:`get_engine` returns the process-global :class:`ExecutionEngine`,
a stateless serial dispatcher over :mod:`repro.exec.numerics`; kernels
run the value-dependent half of a launch (the part the structural plan
cache does not replay) through it.  Simulated device times never depend
on it.

Importing this package also installs the fork-safety hooks
(:mod:`repro.exec.forksafe`): a forked child gets fresh plan-cache,
injector and span state.
"""

from repro.exec.engine import ExecutionEngine, get_engine
from repro.exec.forksafe import register_fork_hooks

register_fork_hooks()

__all__ = [
    "ExecutionEngine",
    "get_engine",
    "register_fork_hooks",
]
