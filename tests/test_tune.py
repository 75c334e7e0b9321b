"""core.autotune strategy tests: exhaustive search is the only strategy.

Every call searches the whole configuration space; a repeat call
replays each trial from the plan cache and returns an equal result.
"""

from __future__ import annotations

from repro.core.autotune import CACHE_SIZES, autotune


class TestAutotuneStrategy:
    def test_exact_memo_identity_preserved(self, small_graph):
        r1 = autotune(small_graph, 16, "spmm")
        r2 = autotune(small_graph, 16, "spmm")
        assert r2 == r1
        # the result is the exhaustive one: every candidate was simulated
        # and the winner is the fastest of them
        assert len(r1.trials) == 2 * len(CACHE_SIZES)
        assert r1.time_us == min(r1.trials.values())
