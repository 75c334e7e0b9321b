"""Benchmark harness: registry, report formatting, OOM cell conventions."""

import numpy as np
import pytest

from repro.bench import experiment_ids, run_experiment, time_kernel
from repro.bench.report import (
    SDDMM_OOM_SPEEDUP,
    SPMM_OOM_SPEEDUP,
    ExperimentResult,
    render_table,
    speedup_cell,
)
from repro.core import clear_plan_cache, get_plan_cache
from repro.errors import BenchmarkError


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(experiment_ids())
        expected = {f"fig{n:02d}" for n in range(3, 13)} | {
            "table01",
            "ext-fusion",
            "ext-spmv",
        }
        assert ids == expected

    def test_unknown_experiment(self):
        with pytest.raises(BenchmarkError):
            run_experiment("fig99")

    def test_unknown_experiment_hides_internal_traceback(self):
        with pytest.raises(BenchmarkError) as excinfo:
            run_experiment("fig99")
        # raised `from None`: the internal KeyError must not leak into
        # the CLI traceback chain.
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__

    def test_unknown_kernel_hides_internal_traceback(self):
        from repro.kernels.registry import spmm_kernel

        with pytest.raises(BenchmarkError) as excinfo:
            spmm_kernel("nope")
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__


class TestTimingHelpers:
    def test_time_spmm_returns_float(self):
        t = time_kernel("spmm", "gnnone", "G3", 16)
        assert t is not None and t > 0

    def test_time_sddmm_returns_float(self):
        t = time_kernel("sddmm", "gnnone", "G3", 16)
        assert t is not None and t > 0

    def test_oom_at_paper_scale_returns_none(self):
        # uk-2005 at dim 64: nobody fits (Fig 4's "OOM" cells).
        assert time_kernel("spmm", "gnnone", "G18", 64) is None

    def test_sputnik_launch_error_returns_none(self):
        assert time_kernel("sddmm", "sputnik", "G13", 16) is None

    def test_sweep_operands_memoized_across_kernels(self):
        from repro.bench.harness import sweep_operands

        a1 = sweep_operands("G3", 16)
        a2 = sweep_operands("G3", 16)
        assert all(x is y for x, y in zip(a1, a2))  # same cached objects
        assert sweep_operands("G3", 32)[2].shape[1] == 32

    def test_sweep_operands_read_only(self):
        from repro.bench.harness import sweep_operands

        _, vals, X_cols, X_rows = sweep_operands("G3", 16)
        for arr in (vals, X_cols, X_rows):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("f", [16, 32])
    @pytest.mark.parametrize("kernel", ["gnnone", "dgl"])
    def test_timing_helpers_consistent_with_cache(self, kernel, f):
        # A cold call and its warm plan-cache replay report identical
        # simulated time.
        clear_plan_cache()
        assert time_kernel("spmm", kernel, "G3", f) == time_kernel("spmm", kernel, "G3", f)
        assert get_plan_cache().hits > 0


class TestSpeedupCells:
    def test_normal_cell(self):
        assert speedup_cell(30.0, 10.0, oom_marker=64.0) == 3.0

    def test_baseline_oom_marker(self):
        assert speedup_cell(None, 10.0, oom_marker=SDDMM_OOM_SPEEDUP) == 64.0
        assert speedup_cell(None, 10.0, oom_marker=SPMM_OOM_SPEEDUP) == 256.0

    def test_everyone_oom(self):
        assert speedup_cell(None, None, oom_marker=64.0) == "OOM"
        assert speedup_cell(5.0, None, oom_marker=64.0) == "OOM"


class TestReport:
    def test_render_and_stats(self):
        res = ExperimentResult("figXX", "demo", ["a", "b"])
        res.add_row(a="x", b=2.0)
        res.add_row(a="y", b=8.0)
        res.add_row(a="z", b="OOM")
        text = res.render()
        assert "figXX" in text and "OOM" in text
        assert res.geomean("b") == pytest.approx(4.0)
        assert len(res.numeric_column("b")) == 2

    def test_geomean_empty_is_nan(self):
        res = ExperimentResult("e", "t", ["a"])
        assert np.isnan(res.geomean("a"))

    def test_render_table_empty(self):
        text = render_table("t", ["x"], [])
        assert "t" in text

    def test_render_formats_numbers(self):
        text = render_table("t", ["x"], [{"x": 123456.0}, {"x": 0.123}, {"x": None}])
        assert "123,456" in text and "0.123" in text and "-" in text
