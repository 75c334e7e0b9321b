"""Table-1 dataset registry."""

import pytest

from repro.errors import BenchmarkError
from repro.sparse import datasets, graph_stats
from repro.sparse.datasets import (
    KERNEL_SWEEP_KEYS,
    QUICK_KEYS,
    get_spec,
    load_dataset,
    table1_rows,
)

#: every dataset key, in registry order
ALL_KEYS = tuple(spec.key for spec in datasets._SPECS)


class TestRegistry:
    def test_nineteen_datasets(self):
        assert len(ALL_KEYS) == 19
        assert ALL_KEYS[0] == "G0" and ALL_KEYS[-1] == "G18"

    def test_lookup_by_key_and_name(self):
        assert get_spec("G14").name == "Reddit"
        assert get_spec("reddit").key == "G14"
        assert get_spec("Cora").key == "G0"

    def test_unknown_raises(self):
        with pytest.raises(BenchmarkError):
            get_spec("G99")

    def test_subsets_are_valid_keys(self):
        keys = set(ALL_KEYS)
        assert set(KERNEL_SWEEP_KEYS) <= keys
        assert set(QUICK_KEYS) <= keys

    def test_labeled_flags(self):
        labeled = {s for s in ALL_KEYS if get_spec(s).labeled}
        assert labeled == {"G0", "G1", "G2", "G12", "G14"}

    def test_paper_sizes_preserved(self):
        spec = get_spec("G18")
        assert spec.paper_vertices == 39_459_925
        assert spec.paper_edges == 1_872_728_564


class TestLoading:
    def test_load_is_memoized(self):
        a = load_dataset("G3")
        b = load_dataset("G3")
        assert a is b

    def test_scaled_sizes_reasonable(self):
        for key in QUICK_KEYS:
            d = load_dataset(key)
            assert 1000 <= d.coo.num_rows <= 300_000
            assert d.coo.nnz > d.coo.num_rows  # connected-ish

    def test_sputnik_failure_boundary_alignment(self):
        """Datasets above the paper's ~2M-vertex Sputnik failure line
        scale to above sqrt(2^31) vertices; those below stay below."""
        threshold = int((2**31 - 1) ** 0.5)
        for key in ("G4", "G8", "G9", "G12", "G13", "G15"):
            assert load_dataset(key).coo.num_rows > threshold, key
        for key in ("G3", "G7", "G11", "G14"):
            assert load_dataset(key).coo.num_rows < threshold, key

    def test_structure_classes(self):
        road = graph_stats(load_dataset("G5").coo)
        social = graph_stats(load_dataset("G11").coo)
        assert road.degree_cv < 0.3
        assert social.degree_cv > 0.8

    def test_table1_rows_complete(self):
        rows = table1_rows()
        assert len(rows) == 19
        assert all(r["scaled_edges"] > 0 for r in rows)
        starred = [r for r in rows if str(r["name"]).endswith("*")]
        assert len(starred) == 5
