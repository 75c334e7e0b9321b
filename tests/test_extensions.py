"""Extensions beyond the paper's headline results: fusion, SpMV survey."""

import numpy as np

from repro.gpusim.device import get_device
from repro.gpusim.sharedmem import stage1_cache_bytes
from repro.kernels import spmv_kernel, spmv_kernel_names
from repro.kernels.gnnone import GnnOneConfig
from repro.kernels.gnnone.fused import (
    GnnOneFusedGATLayer,
    fused_gat_attention_numerics,
    unfused_gat_pipeline_time_us,
)
from repro.sparse import generators


class TestFusedGAT:
    def test_alpha_rows_sum_to_one(self, small_graph, rng):
        el = rng.standard_normal(small_graph.num_rows)
        er = rng.standard_normal(small_graph.num_cols)
        X = rng.standard_normal((small_graph.num_cols, 8))
        alpha, _ = fused_gat_attention_numerics(small_graph, el, er, X)
        sums = np.zeros(small_graph.num_rows)
        np.add.at(sums, small_graph.rows, alpha)
        nonempty = small_graph.row_degrees() > 0
        np.testing.assert_allclose(sums[nonempty], 1.0)

    def test_fusion_speedup(self, medium_graph, rng):
        """The paper's future-work expectation: fusion helps further."""
        el = rng.standard_normal(medium_graph.num_rows)
        er = rng.standard_normal(medium_graph.num_cols)
        X = rng.standard_normal((medium_graph.num_cols, 16))
        fused = GnnOneFusedGATLayer()(medium_graph, el, er, X).time_us
        unfused = unfused_gat_pipeline_time_us(medium_graph, 16)
        assert fused < unfused

    def test_nze_cache_ablation_applies(self, medium_graph):
        """Turning the Stage-1 cache off drops its shared memory and fill
        barrier from the fused launch, as it does from SDDMM's, and both
        passes pay the global NZE re-reads."""
        dev = get_device()
        off = GnnOneConfig(enable_nze_cache=False)
        on_trace = GnnOneFusedGATLayer().execute(medium_graph, 16, dev)
        off_trace = GnnOneFusedGATLayer(off).execute(medium_graph, 16, dev)
        cache = stage1_cache_bytes(off.cache_size, with_edge_feature=False)
        assert (on_trace.launch.shared_mem_per_cta - off_trace.launch.shared_mem_per_cta
                == cache * off.warps_per_cta)
        assert on_trace.phases[0].barriers == 1.0
        assert off_trace.phases[0].barriers == 0.0
        on_us = GnnOneFusedGATLayer().simulate(medium_graph, 16, device=dev).time_us
        off_us = GnnOneFusedGATLayer(off).simulate(medium_graph, 16, device=dev).time_us
        assert off_us > on_us
        for name in ("fused_score_pass", "fused_aggregate_pass"):
            on_phase = next(p for p in on_trace.phases if p.name == name)
            off_phase = next(p for p in off_trace.phases if p.name == name)
            assert off_phase.total("load_instrs") > on_phase.total("load_instrs")
            assert off_phase.total("sectors") > on_phase.total("sectors")


class TestSpMVSurvey:
    def test_csr_scalar_slowest_on_skew(self, rng):
        g = generators.power_law(3000, 12.0, seed=5)
        vals = rng.standard_normal(g.nnz)
        x = rng.standard_normal(g.num_cols)
        scalar = spmv_kernel("csr-scalar")(g, vals, x).time_us
        gnnone = spmv_kernel("gnnone")(g, vals, x).time_us
        assert scalar > 2 * gnnone

    def test_registry_extended(self):
        assert {"csr-scalar", "csr-vector", "binned"} <= set(spmv_kernel_names())


class TestExtensionExperiments:
    def test_ext_fusion(self):
        from repro.bench import run_experiment

        res = run_experiment("ext-fusion", quick=True)
        assert res.geomean("speedup") > 1.0

    def test_ext_spmv(self):
        from repro.bench import run_experiment

        res = run_experiment("ext-spmv", quick=True)
        for row in res.rows:
            assert row["gnnone"] < row["csr-scalar"]
