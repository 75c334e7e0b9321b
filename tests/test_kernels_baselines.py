"""Baseline kernels: registry, distinguishing mechanisms, failure modes."""

import numpy as np
import pytest

from repro.errors import KernelLaunchError
from repro.kernels import (
    reference_sddmm,
    sddmm_kernel,
    sddmm_kernel_names,
    spmm_kernel,
    spmm_kernel_names,
    spmv_kernel_names,
)
from repro.kernels.baselines import (
    DGLSpMM,
    GeSpMM,
    SputnikSDDMM,
    YangNonzeroSplitSpMM,
)
from repro.sparse import generators
from tests.conftest import make_operands
from tests.oracles import star as star_graph


class TestRegistry:
    def test_unknown_kernel(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            spmm_kernel("nonexistent")

    def test_names_cover_paper_series(self):
        assert {"gnnone", "ge-spmm", "cusparse", "huang", "featgraph", "gnnadvisor"} <= set(
            spmm_kernel_names()
        )
        assert {"gnnone", "dgl", "dgsparse", "featgraph", "cusparse", "sputnik"} <= set(
            sddmm_kernel_names()
        )
        assert {"gnnone", "merge-spmv", "dalton"} <= set(spmv_kernel_names())


class TestDistinguishingMechanisms:
    def test_vertex_parallel_suffers_on_star(self, rng):
        """A hub row serializes GE-SpMM but not GNNOne (Sec 3.1)."""
        star = star_graph(4000)
        vals, X, _, _ = make_operands(star, 32, rng)
        ge = GeSpMM()(star, vals, X)
        ours = spmm_kernel("gnnone")(star, vals, X)
        assert ge.time_us > 3 * ours.time_us
        assert ge.cost.sm_imbalance > ours.cost.sm_imbalance

    def test_yang_low_occupancy(self, medium_graph, rng):
        """Register materialization (Sec 3.2) shows up as occupancy loss."""
        vals, X, _, _ = make_operands(medium_graph, 32, rng)
        yang = YangNonzeroSplitSpMM()(medium_graph, vals, X)
        ours = spmm_kernel("gnnone")(medium_graph, vals, X)
        assert (
            yang.cost.occupancy.active_warps_per_sm
            < ours.cost.occupancy.active_warps_per_sm
        )

    def test_yang_slower_than_ge_on_uniform(self, uniform_graph, rng):
        """Yang et al.'s own finding: nonzero-split loses to vanilla
        vertex-parallel on balanced datasets."""
        vals, X, _, _ = make_operands(uniform_graph, 32, rng)
        yang = YangNonzeroSplitSpMM()(uniform_graph, vals, X).time_us
        ge = GeSpMM()(uniform_graph, vals, X).time_us
        assert yang > ge

    def test_sputnik_grid_failure_above_threshold(self, rng):
        """|V|^2 blocks exceed the grid limit above ~sqrt(2^31) vertices."""
        big = generators.erdos_renyi(50_000, 100_000, seed=1)
        X = rng.standard_normal((big.num_rows, 16))
        with pytest.raises(KernelLaunchError, match="V"):
            SputnikSDDMM()(big, X, X)

    def test_sputnik_runs_below_threshold(self, small_graph, rng):
        _, X, Xr, _ = make_operands(small_graph, 16, rng)
        res = SputnikSDDMM()(small_graph, Xr, X)
        np.testing.assert_allclose(res.output, reference_sddmm(small_graph, Xr, X))

    def test_sputnik_dispatch_overhead_grows_with_v_squared(self, rng):
        a = generators.erdos_renyi(1000, 4000, seed=2)
        b = generators.erdos_renyi(4000, 4000, seed=2)
        Xa = rng.standard_normal((1000, 16))
        Xb = rng.standard_normal((4000, 16))
        ta = SputnikSDDMM()(a, Xa, Xa).time_us
        tb = SputnikSDDMM()(b, Xb, Xb).time_us
        assert tb > 4 * ta  # ~16x blocks

    def test_dgl_spmm_is_cusparse_plus_memory(self, small_graph, rng):
        vals, X, _, _ = make_operands(small_graph, 32, rng)
        dgl = DGLSpMM()
        cus = spmm_kernel("cusparse")
        assert dgl(small_graph, vals, X).time_us == pytest.approx(
            cus(small_graph, vals, X).time_us
        )
        assert dgl.memory_bytes(10**6, 10**8, 32) > cus.memory_bytes(10**6, 10**8, 32)

    def test_cusparse_sddmm_scattered_traffic(self, small_graph, rng):
        """The 'extremely slow' vendor SDDMM moves ~8x the feature bytes."""
        _, X, Xr, _ = make_operands(small_graph, 32, rng)
        cu = sddmm_kernel("cusparse")(small_graph, Xr, X)
        ours = sddmm_kernel("gnnone")(small_graph, Xr, X)
        assert cu.cost.dram_bytes > 4 * ours.cost.dram_bytes

    def test_dgl_sddmm_no_reuse_traffic(self, medium_graph, rng):
        """DGL re-fetches row features per edge; GNNOne reuses them."""
        _, X, Xr, _ = make_operands(medium_graph, 32, rng)
        dgl = sddmm_kernel("dgl")(medium_graph, Xr, X)
        ours = sddmm_kernel("gnnone")(medium_graph, Xr, X)
        assert dgl.cost.dram_bytes > ours.cost.dram_bytes

    def test_custom_formats_report_metadata(self):
        from repro.kernels.baselines import GNNAdvisorSpMM, HuangSpMM

        for k in (GNNAdvisorSpMM(), HuangSpMM()):
            base = k.memory_bytes(10**6, 32 * 10**6, 32)
            csr_only = GeSpMM().memory_bytes(10**6, 32 * 10**6, 32)
            assert base > csr_only  # metadata costs memory
