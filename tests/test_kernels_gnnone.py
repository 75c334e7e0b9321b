"""GNNOne kernels: the segment-sum oracle, trace structure, config knobs, design claims.

Every kernel's numerics are checked in ``test_differential.py``."""

import numpy as np
import pytest

from repro.errors import ConfigError, FormatError
from repro.kernels.base import reference_spmm
from repro.kernels.gnnone import CONSECUTIVE, ROUND_ROBIN, GnnOneConfig, GnnOneSDDMM, GnnOneSpMM
from tests.conftest import make_operands
from tests.oracles import assert_close, chain as chain_graph, operands
from tests.oracles import segment_sum_spmm, star as star_graph


class TestNumericalCorrectness:
    def test_segment_sum_standalone(self, medium_graph, rng):
        vals, X = operands("spmm", medium_graph, 16, rng)
        want = reference_spmm(medium_graph, vals, X)
        assert_close(segment_sum_spmm(medium_graph, vals, X), want)


class TestInputValidation:
    def test_sddmm_shape_checks(self, small_graph, rng):
        X = rng.standard_normal((small_graph.num_rows, 8))
        Y = rng.standard_normal((small_graph.num_cols, 9))
        with pytest.raises(FormatError):
            GnnOneSDDMM()(small_graph, X, Y)  # feature mismatch

    def test_config_validation(self):
        for bad in (dict(cache_size=100), dict(schedule="zigzag"), dict(vector_width=5),
                    dict(threads_per_cta=100)):
            with pytest.raises(ConfigError):
                GnnOneConfig(**bad)


class TestTraceStructure:
    def test_spmm_phases(self, small_graph, rng):
        vals, X, _, _ = make_operands(small_graph, 32, rng)
        trace = GnnOneSpMM()(small_graph, vals, X).trace
        names = [p.name for p in trace.phases]
        assert "stage1_nze_load" in names
        assert "stage2_feature_load" in names
        assert "running_reduction_writeback" in names

    def test_sddmm_phases(self, small_graph, rng):
        _, X, Xr, _ = make_operands(small_graph, 32, rng)
        trace = GnnOneSDDMM()(small_graph, Xr, X).trace
        kinds = {p.kind for p in trace.phases}
        assert kinds == {"load", "reduce", "store"}

    def test_stage1_loads_three_arrays_for_spmm(self, small_graph, rng):
        vals, X, Xr, _ = make_operands(small_graph, 32, rng)
        spmm_s1 = GnnOneSpMM()(small_graph, vals, X).trace.phases[0]
        sddmm_s1 = GnnOneSDDMM()(small_graph, Xr, X).trace.phases[0]
        # SpMM additionally streams the edge-value array: 3/2 the sectors.
        assert spmm_s1.total("sectors") > sddmm_s1.total("sectors")

    def test_shared_memory_scales_with_cache(self, small_graph, rng):
        vals, X, _, _ = make_operands(small_graph, 32, rng)
        t32 = GnnOneSpMM(GnnOneConfig(cache_size=32))(small_graph, vals, X).trace
        t128 = GnnOneSpMM(GnnOneConfig(cache_size=128))(small_graph, vals, X).trace
        assert t128.launch.shared_mem_per_cta == 4 * t32.launch.shared_mem_per_cta

    def test_ablation_disables_cache(self, small_graph, rng):
        _, X, Xr, _ = make_operands(small_graph, 32, rng)
        from repro.kernels.gnnone import ABLATION_BASELINE

        trace = GnnOneSDDMM(ABLATION_BASELINE)(small_graph, Xr, X).trace
        assert trace.launch.shared_mem_per_cta == 0


class TestDesignClaims:
    def test_cache_128_not_slower_than_32(self, medium_graph, rng):
        """Fig 9's direction on a skewed graph."""
        vals, X, _, _ = make_operands(medium_graph, 16, rng)
        t32 = GnnOneSpMM(GnnOneConfig(cache_size=32))(medium_graph, vals, X).time_us
        t128 = GnnOneSpMM(GnnOneConfig(cache_size=128))(medium_graph, vals, X).time_us
        # Allow a small-grid tolerance: on graphs this small the 128-NZE
        # chunks leave SMs idle (fewer CTAs), a real effect that vanishes
        # at benchmark scale (see fig09).
        assert t128 <= t32 * 1.05

    def test_consecutive_not_slower_than_round_robin(self, medium_graph, rng):
        """Fig 10's direction."""
        vals, X, _, _ = make_operands(medium_graph, 32, rng)
        tc = GnnOneSpMM(GnnOneConfig(schedule=CONSECUTIVE))(medium_graph, vals, X).time_us
        tr = GnnOneSpMM(GnnOneConfig(schedule=ROUND_ROBIN))(medium_graph, vals, X).time_us
        assert tc <= tr

    def test_data_load_dominates(self, medium_graph, rng):
        """Fig 11 / Observation #2."""
        vals, X, _, _ = make_operands(medium_graph, 32, rng)
        res = GnnOneSpMM()(medium_graph, vals, X)
        load = sum(v for k, v in res.cost.kind_cycles.items() if k == "load")
        other = sum(v for k, v in res.cost.kind_cycles.items() if k != "load")
        assert load > other

    def test_load_balance_insensitive_to_skew(self, rng):
        """Edge-parallel Stage 1: star and chain cost alike per NZE."""
        star = star_graph(30_000)
        chain = chain_graph(30_000)
        Xs = rng.standard_normal((star.num_cols, 32))
        Xc = rng.standard_normal((chain.num_cols, 32))
        ts = GnnOneSpMM()(star, np.ones(star.nnz), Xs)
        tc = GnnOneSpMM()(chain, np.ones(chain.nnz), Xc)
        assert ts.cost.sm_imbalance < 4.0
        assert 0.2 < ts.time_us / tc.time_us < 5.0

    def test_memory_model_single_format(self):
        """COO-only footprint is below DGL's dual-format footprint."""
        from repro.kernels.baselines import DGLSpMM

        ours = GnnOneSpMM().memory_bytes(10**6, 10**8, 32)
        dgl = DGLSpMM().memory_bytes(10**6, 10**8, 32)
        assert ours < dgl
