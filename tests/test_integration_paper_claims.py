"""Integration tests: every experiment runs (quick mode) and the paper's
headline qualitative claims hold on the quick subset."""

import numpy as np
import pytest

from repro.bench import run_experiment


@pytest.fixture(scope="module")
def fig03():
    return run_experiment("fig03", quick=True)


@pytest.fixture(scope="module")
def fig04():
    return run_experiment("fig04", quick=True)


class TestFig03SDDMM:
    def test_gnnone_wins_everywhere(self, fig03):
        for base in ("dgsparse", "dgl", "featgraph"):
            vals = fig03.numeric_column(base)
            assert np.all(vals > 1.0), f"{base} beat GNNOne somewhere"

    def test_cusparse_order_of_magnitude(self, fig03):
        assert fig03.geomean("cusparse") > 8.0

    def test_smaller_dims_bigger_speedups(self, fig03):
        by_dim = {}
        for row in fig03.rows:
            if isinstance(row["dgl"], float):
                by_dim.setdefault(row["dim"], []).append(row["dgl"])
        gm = {d: np.exp(np.mean(np.log(v))) for d, v in by_dim.items()}
        assert gm[6] > gm[32]

    def test_sputnik_runs_on_small_v_datasets(self, fig03):
        # quick keys are all below the 46341-vertex failure line
        cells = [row.get("sputnik") for row in fig03.rows]
        assert all(isinstance(c, float) for c in cells)


class TestFig04SpMM:
    def test_gnnone_wins_everywhere(self, fig04):
        for base in ("ge-spmm", "cusparse", "featgraph", "gnnadvisor"):
            vals = fig04.numeric_column(base)
            assert np.all(vals > 1.0), base
        # Huang is the closest competitor; on dense bandwidth-bound cells
        # (Reddit dim 32) it ties GNNOne within noise — the paper reports
        # a ~1.0x minimum there too.
        huang = fig04.numeric_column("huang")
        assert np.all(huang > 0.95)
        assert fig04.geomean("huang") > 1.2

    def test_huang_is_closest_competitor(self, fig04):
        assert fig04.geomean("huang") < fig04.geomean("gnnadvisor")
        assert fig04.geomean("huang") < fig04.geomean("featgraph")

    def test_dim16_beats_dim32_for_ge_spmm(self, fig04):
        by_dim = {}
        for row in fig04.rows:
            if isinstance(row["ge-spmm"], float):
                by_dim.setdefault(row["dim"], []).append(row["ge-spmm"])
        assert np.mean(by_dim[16]) > np.mean(by_dim[32])


class TestTrainingExperiments:
    def test_fig05_accuracy_identical(self):
        res = run_experiment("fig05", quick=True)
        assert all(row["match"] for row in res.rows)
        assert all(row["gnnone_acc"] > 0.2 for row in res.rows)

    def test_fig06_gat_beats_both_baselines(self):
        res = run_experiment("fig06", quick=True)
        assert res.geomean("speedup_dgl") > 1.0
        assert res.geomean("speedup_dgnn") > 1.0

    def test_fig07_oom_boundary(self):
        res = run_experiment("fig07", quick=True)
        cells = {(r["dataset"], r["model"]): r for r in res.rows}
        g17 = cells[("G17", "GCN")]
        assert g17["dgl_ms"] == "OOM"
        assert g17["gnnone_ms"] != "OOM"
        for key in ("G16", "G18"):
            assert cells[(key, "GCN")]["gnnone_ms"] == "OOM"
            assert cells[(key, "GCN")]["dgl_ms"] == "OOM"
        g14 = cells[("G14", "GCN")]
        assert isinstance(g14["speedup"], float) and g14["speedup"] > 1.0


class TestDesignChoiceExperiments:
    def test_fig08_ablation_order(self):
        res = run_experiment("fig08", quick=True)
        for row in res.rows:
            assert row["baseline_us"] > row["reuse_us"] > row["float4_us"]

    def test_fig09_cache(self):
        res = run_experiment("fig09", quick=True)
        assert res.geomean("speedup") > 1.0

    def test_fig10_consecutive(self):
        res = run_experiment("fig10", quick=True)
        assert res.geomean("load_speedup") >= 1.0
        assert res.geomean("full_speedup") > 1.0

    def test_fig11_load_dominates(self):
        res = run_experiment("fig11", quick=True)
        fracs = res.numeric_column("load_fraction")
        assert np.all(fracs > 0.5)

    def test_fig12_coo_wins(self):
        res = run_experiment("fig12", quick=True)
        assert res.geomean("speedup_vs_merge") >= 1.0

    def test_table01(self):
        res = run_experiment("table01")
        assert len(res.rows) == 19
