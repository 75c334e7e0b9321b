"""repro.exec — sharded parallel execution engine for kernel numerics.

Shards each kernel launch's value-dependent half (the numerics left on
the warm path by the structural plan cache) into NNZ-balanced row
blocks executed concurrently on the engine's thread pool,
bit-identical to the serial path.  ``REPRO_EXEC_WORKERS`` (default 1)
turns it on.

Importing this package also installs the fork-safety hooks
(:mod:`repro.exec.forksafe`): a forked child drops the inherited
engine/executor and gets fresh plan-cache, injector and span state.
"""

from repro.exec.engine import (
    DEFAULT_MIN_PARALLEL_NNZ,
    BufferPool,
    ExecutionEngine,
    exec_workers,
    get_engine,
    resolve_workers,
    set_exec_workers,
)
from repro.exec.forksafe import register_fork_hooks
from repro.exec.sharding import (
    RowBlock,
    ShardPlan,
    build_row_shard_plan,
    edge_range_bounds,
    row_shard_plan,
)

register_fork_hooks()

__all__ = [
    "DEFAULT_MIN_PARALLEL_NNZ",
    "BufferPool",
    "ExecutionEngine",
    "exec_workers",
    "get_engine",
    "register_fork_hooks",
    "resolve_workers",
    "set_exec_workers",
    "RowBlock",
    "ShardPlan",
    "build_row_shard_plan",
    "edge_range_bounds",
    "row_shard_plan",
]
