"""Warp-level abstractions: thread groups and vector loads.

GNNOne's symbiotic scheduler partitions each 32-thread warp into *thread
groups*: with feature length 32 and ``float4`` loads, 8 threads cover one
NZE's feature row, so the warp holds 4 groups handling 4 NZEs
simultaneously, and the tree reduction inside one group needs
``log2(8) = 3`` shuffle rounds instead of ``log2(32) = 5``.

This module computes those shapes for arbitrary feature lengths,
including the odd last-layer lengths (e.g. 6 classes in Citeseer) where
``float4`` is misaligned and the kernel falls back to ``float3``/
``float2``/scalar loads (Section 4.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

WARP_SIZE = 32


def vector_width_for(feature_length: int) -> int:
    """Widest aligned vector load (in 4-byte elements) for a feature row.

    ``float4`` needs 16-byte alignment, so it requires the feature length
    to be a multiple of 4; ``float2`` a multiple of 2.  Odd lengths that
    are multiples of 3 (like Citeseer's 6 classes) use ``float3`` as the
    paper describes; anything else degrades to scalar loads.
    """
    if feature_length <= 0:
        raise ConfigError(f"feature_length must be positive, got {feature_length}")
    if feature_length % 4 == 0:
        return 4
    if feature_length % 3 == 0:
        return 3
    if feature_length % 2 == 0:
        return 2
    return 1


@dataclass(frozen=True)
class ThreadGroupShape:
    """How a warp is partitioned for a given feature length."""

    feature_length: int
    #: elements fetched by one vector load instruction (4 for float4)
    vector_width: int
    #: threads cooperating on one NZE's feature row
    threads_per_group: int
    #: thread groups per warp == NZEs processed simultaneously
    groups_per_warp: int
    #: vector load instructions each thread issues per feature row
    loads_per_thread: int
    #: shuffle rounds for a tree reduction across the group
    reduction_rounds: int
    #: warp lanes left idle (only when the group math cannot fill 32)
    idle_lanes: int


def thread_group_shape(feature_length: int, vector_width: int | None = None) -> ThreadGroupShape:
    """Compute GNNOne's thread-group partition of a warp.

    One thread loads one vector (``vector_width`` consecutive features);
    ``threads_per_group = ceil(F / vw)`` threads cover the row.  Groups
    are packed into the warp; with power-of-two group sizes the warp is
    fully utilized, which is the paper's headline case (F=32 → 4 groups
    of 8).
    """
    vw = vector_width if vector_width is not None else vector_width_for(feature_length)
    if vw not in (1, 2, 3, 4):
        raise ConfigError(f"vector width must be 1..4, got {vw}")
    threads_per_group = max(1, math.ceil(feature_length / vw))
    if threads_per_group >= WARP_SIZE:
        # Long feature rows: one group spans the warp, each thread loops.
        threads_per_group = WARP_SIZE
        groups = 1
        idle = 0
    else:
        groups = WARP_SIZE // threads_per_group
        idle = WARP_SIZE - groups * threads_per_group
    loads_per_thread = math.ceil(feature_length / (threads_per_group * vw))
    rounds = math.ceil(math.log2(threads_per_group)) if threads_per_group > 1 else 0
    return ThreadGroupShape(
        feature_length=feature_length,
        vector_width=vw,
        threads_per_group=threads_per_group,
        groups_per_warp=groups,
        loads_per_thread=loads_per_thread,
        reduction_rounds=rounds,
        idle_lanes=idle,
    )


def feature_parallel_shape(feature_length: int) -> ThreadGroupShape:
    """The *vanilla* feature-parallel mapping used by prior works.

    One thread per feature element (scalar loads).  For ``F < 32`` the
    remaining lanes idle — exactly the inefficiency the paper calls out
    in FeatGraph/GE-SpMM/GNNAdvisor for small feature lengths; for
    ``F >= 32`` the warp loops over the row 32 elements at a time.
    """
    if feature_length >= WARP_SIZE:
        threads = WARP_SIZE
        idle = 0
        groups = 1
    else:
        threads = feature_length
        idle = WARP_SIZE - feature_length
        groups = 1
    loads = math.ceil(feature_length / threads)
    rounds = math.ceil(math.log2(threads)) if threads > 1 else 0
    return ThreadGroupShape(
        feature_length=feature_length,
        vector_width=1,
        threads_per_group=threads,
        groups_per_warp=groups,
        loads_per_thread=loads,
        reduction_rounds=rounds,
        idle_lanes=idle,
    )
