"""Public API: dispatch, configs, plan introspection, autotune."""

import numpy as np
import pytest

from repro import core, obs
from repro.errors import BenchmarkError, ConfigError, FormatError
from repro.gpusim.device import get_device
from repro.kernels.gnnone import (
    ABLATION_BASELINE,
    ABLATION_DATA_REUSE,
    ABLATION_FULL,
    CONSECUTIVE,
    ROUND_ROBIN,
    GnnOneConfig,
    GnnOneFusedGATLayer,
    GnnOneSDDMM,
    GnnOneSpMM,
)
from tests.conftest import make_operands
from tests.oracles import assert_path, core_path


class TestApi:
    """Fixed-graph cases of the differential path and boundary tables."""

    def test_spmm_default_backend(self, small_graph, rng):
        assert core_path("spmm", small_graph, rng, 16)[1].kernel_name.startswith("gnnone")

    def test_spmm_baseline_backend(self, small_graph, rng):
        _, report = core_path("spmm", small_graph, rng, 16, backend="ge-spmm")
        assert report.kernel_name == "ge-spmm"

    def test_spmm_custom_config(self, small_graph, rng):
        _, report = core_path("spmm", small_graph, rng, 16, config=GnnOneConfig(cache_size=64))
        assert "c64" in report.kernel_name

    def test_sddmm(self, small_graph, rng):
        core_path("sddmm", small_graph, rng, 16)

    def test_spmv(self, small_graph, rng):
        core_path("spmv", small_graph, rng)

    def test_unknown_backend(self, small_graph, rng):
        vals, X, _, _ = make_operands(small_graph, 16, rng)
        with pytest.raises(BenchmarkError):
            core.spmm(small_graph, vals, X, backend="torch")

    @pytest.mark.parametrize("op", ["spmm", "sddmm"])
    def test_config_with_a_baseline_backend_is_refused(self, small_graph, rng, op):
        vals, X, Xr, _ = make_operands(small_graph, 16, rng)
        operands = (vals, X) if op == "spmm" else (Xr, X)
        with pytest.raises(ConfigError, match="backend='gnnone'"):
            getattr(core, op)(
                small_graph, *operands, backend="dgl", config=GnnOneConfig(cache_size=32)
            )

    @pytest.mark.parametrize("dtype", [complex, str, bool, object])
    def test_non_numeric_operands_are_refused(self, small_graph, rng, dtype):
        """Casting to float64 would drop an imaginary part or parse strings."""
        vals, X, Xr, x = make_operands(small_graph, 4, rng)
        calls = [
            lambda: core.spmm(small_graph, vals.astype(dtype), X),
            lambda: core.spmm(small_graph, vals, X.astype(dtype)),
            lambda: core.sddmm(small_graph, Xr.astype(dtype), X),
            lambda: core.sddmm(small_graph, Xr, X.astype(dtype)),
            lambda: core.spmv(small_graph, vals, x.astype(dtype)),
        ]
        for call in calls:
            with pytest.raises(FormatError, match="integers or floats"):
                call()
        out, _ = core.spmm(small_graph, vals, X.astype(np.int32))  # ints are fine
        assert_path("spmm", out, small_graph, (vals, X.astype(np.int32)))

    def test_top_level_reexports(self, small_graph, rng):
        import repro

        vals, X, _, _ = make_operands(small_graph, 16, rng)
        out, _ = repro.spmm(small_graph, vals, X)
        assert out.shape == (small_graph.num_rows, 16)


class TestUnifiedLoadPlan:
    def test_summary_fields(self, medium_graph):
        plan = core.plan_unified_load(medium_graph, 32)
        s = plan.summary()
        assert s["groups_per_warp"] == 4
        assert s["reduction_rounds"] == 3
        assert s["cache_size"] == 128

    def test_load_balance_near_one(self, medium_graph):
        plan = core.plan_unified_load(medium_graph, 32)
        assert plan.load_balance() < 1.01 or medium_graph.nnz < 128

    def test_row_reuse_tracks_degree(self):
        """High-degree graphs -> long segments -> big row reuse."""
        from repro.sparse import generators

        dense = generators.power_law(500, 60.0, seed=1)
        sparse = generators.road_grid(30, seed=1)
        dense_plan = core.plan_unified_load(dense, 32)
        sparse_plan = core.plan_unified_load(sparse, 32)
        assert dense_plan.row_reuse_factor() > sparse_plan.row_reuse_factor()

    def test_smem_accounting(self, medium_graph):
        plan = core.plan_unified_load(medium_graph, 32, with_edge_values=True)
        assert plan.shared_memory_per_cta() == 4 * 128 * 12

    @pytest.mark.parametrize(
        "config",
        [GnnOneConfig(), ABLATION_BASELINE, ABLATION_DATA_REUSE, ABLATION_FULL,
         GnnOneConfig(schedule=ROUND_ROBIN)],
        ids=["default", "fig8-baseline", "fig8-data-reuse", "fig8-full", "round-robin"],
    )
    @pytest.mark.parametrize(
        "kernel_cls", [GnnOneSpMM, GnnOneSDDMM, GnnOneFusedGATLayer],
        ids=["spmm", "sddmm", "fused-gat"],
    )
    def test_plan_is_what_each_kernel_launches(self, medium_graph, kernel_cls, config):
        """Stage-1 chunks, schedule and shared memory of the introspection
        plan are the ones the kernel's priced trace launches with."""
        F = 32
        plan = core.plan_unified_load(
            medium_graph, F, config=config, with_edge_values=kernel_cls is GnnOneSpMM
        )
        with obs.capture() as records:
            trace = kernel_cls(config).execute(medium_graph, F, get_device())
        spans = {r["name"]: r["attrs"] for r in records if r.get("type") == "span"}
        s1 = plan.stage1
        assert spans["gnnone.stage1"]["n_chunks"] == s1.chunks.n_chunks
        assert spans["gnnone.stage1"]["smem_bytes_per_warp"] == s1.smem_bytes_per_warp
        stage1 = trace.phases[0]
        assert stage1.name == "stage1_nze_load"
        np.testing.assert_array_equal(
            stage1.load_instrs[: s1.chunks.n_chunks],
            s1.n_arrays * np.ceil(s1.chunks.chunk_sizes / 32),
        )
        assert stage1.barriers == (1.0 if s1.smem_bytes_per_warp else 0.0)
        assert spans["gnnone.schedule"]["vector_width"] == plan.shape.vector_width
        assert spans["gnnone.schedule"]["threads_per_group"] == plan.shape.threads_per_group
        assert trace.launch.grid_ctas == plan.launch.grid_ctas
        # The fused kernel keeps each cached NZE's alpha (4 B) beside the cache.
        alpha = 4 * config.cache_size if kernel_cls is GnnOneFusedGATLayer else 0
        assert (trace.launch.shared_mem_per_cta
                == plan.shared_memory_per_cta() + alpha * config.warps_per_cta)

    def test_round_robin_more_segments(self, medium_graph):
        cons = core.plan_unified_load(medium_graph, 32)
        rr = core.plan_unified_load(
            medium_graph, 32, config=GnnOneConfig(schedule=ROUND_ROBIN)
        )
        assert rr.mean_segments_per_slice() >= cons.mean_segments_per_slice()


class TestAutotune:
    def test_paper_defaults_win_on_skewed_graph(self, medium_graph):
        """Section 4.1.1/4.2.2: (128, Consecutive) should be optimal."""
        result = core.autotune(medium_graph, 32, "spmm")
        assert result.config.schedule == CONSECUTIVE
        assert result.config.cache_size >= 64

    def test_trials_recorded(self, small_graph):
        result = core.autotune(small_graph, 16, "sddmm")
        assert len(result.trials) == 8
        assert result.time_us == min(result.trials.values())

    def test_trials_equal_full_launches_and_compute_no_numerics(
        self, small_graph, rng, monkeypatch
    ):
        from repro.exec.engine import ExecutionEngine
        from repro.kernels.gnnone import GnnOneSpMM

        def refuse(*args, **kwargs):
            raise AssertionError("autotune ran kernel numerics")

        monkeypatch.setattr(ExecutionEngine, "spmm", refuse)
        result = core.autotune(small_graph, 16, "spmm")
        monkeypatch.undo()
        core.clear_plan_cache()
        vals, X, _, _ = make_operands(small_graph, 16, rng)
        for (cache_size, schedule), time_us in result.trials.items():
            cfg = GnnOneConfig(cache_size=cache_size, schedule=schedule)
            assert GnnOneSpMM(cfg)(small_graph, vals, X).time_us == time_us

    @pytest.mark.parametrize(
        "feature_length, kind",
        [(16, "gemm"), (-3, "spmm"), (16.5, "spmm")],
        ids=["kind", "negative-f", "fractional-f"],
    )
    def test_bad_kind(self, small_graph, feature_length, kind):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            core.autotune(small_graph, feature_length, kind)
