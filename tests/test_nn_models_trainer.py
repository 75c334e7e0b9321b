"""GNN models, synthesized data, trainer, and the memory model."""

import numpy as np
import pytest

from repro.core import clear_plan_cache, get_plan_cache
from repro.gpusim.device import A100
from repro.nn import (
    GAT,
    GCN,
    GIN,
    DGL_BACKEND,
    GNNONE_BACKEND,
    GraphData,
    Tensor,
    Trainer,
    synthesize,
)
from repro.nn.data import smooth_labels
from repro.nn.memory import fits_on_device, training_footprint
from repro.sparse import generators
from repro.sparse.datasets import load_dataset


@pytest.fixture(scope="module")
def train_setup():
    dataset = load_dataset("G0")  # Cora-scale
    graph = GraphData(dataset.coo)
    data = synthesize(dataset, feature_length=16, seed=2)
    return graph, data


class TestModels:
    @pytest.mark.parametrize("cls,kw", [
        (GCN, dict(num_layers=2)),
        (GIN, dict(num_layers=2)),
        (GAT, dict(num_layers=2)),
    ])
    def test_forward_shape(self, train_setup, cls, kw):
        graph, data = train_setup
        model = cls(data.feature_length, 8, data.num_classes, backend="gnnone", **kw)
        out = model(graph, Tensor(data.features))
        assert out.shape == (graph.num_vertices, data.num_classes)

    def test_gcn_single_layer(self, train_setup):
        graph, data = train_setup
        model = GCN(data.feature_length, 8, data.num_classes, num_layers=1)
        assert model(graph, Tensor(data.features)).shape[1] == data.num_classes

    def test_all_models_backprop(self, train_setup):
        graph, data = train_setup
        from repro.nn import functional as F

        for cls in (GCN, GIN, GAT):
            model = cls(data.feature_length, 8, data.num_classes, num_layers=2)
            logits = model(graph, Tensor(data.features))
            loss = F.nll_loss(F.log_softmax(logits), data.labels, data.train_mask)
            loss.backward()
            grads = [p.grad for p in model.parameters()]
            assert all(g is not None for g in grads)
            assert any(np.abs(g).max() > 0 for g in grads)


class TestData:
    def test_masks_partition(self, train_setup):
        _, data = train_setup
        total = data.train_mask | data.val_mask | data.test_mask
        assert total.all()
        assert not (data.train_mask & data.val_mask).any()
        assert not (data.train_mask & data.test_mask).any()

    def test_labels_in_range(self, train_setup):
        _, data = train_setup
        assert data.labels.min() >= 0
        assert data.labels.max() < data.num_classes

    def test_smooth_labels_are_graph_correlated(self):
        """Propagated labels agree with neighbors far above chance."""
        g = generators.power_law(800, 8.0, seed=4)
        labels = smooth_labels(g, 4, seed=4)
        agree = (labels[g.rows] == labels[g.cols]).mean()
        assert agree > 0.4  # chance would be 0.25

    def test_deterministic(self):
        d = load_dataset("G0")
        a = synthesize(d, seed=5)
        b = synthesize(d, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestTrainer:
    def test_loss_decreases_and_learns(self, train_setup):
        graph, data = train_setup
        model = GCN(data.feature_length, 16, data.num_classes, backend="gnnone", seed=1)
        trainer = Trainer(model, graph, data, lr=0.02)
        result = trainer.fit(20)
        assert result.history[-1].loss < result.history[0].loss
        assert result.test_acc > 1.5 / data.num_classes  # well above chance

    def test_backends_identical_accuracy(self, train_setup):
        """The Fig-5 claim, as a unit test."""
        graph, data = train_setup
        results = {}
        for backend in ("gnnone", "dgl"):
            model = GCN(data.feature_length, 16, data.num_classes, backend=backend, seed=1)
            results[backend] = Trainer(model, graph, data, lr=0.02).fit(5)
        assert results["gnnone"].test_acc == results["dgl"].test_acc
        for a, b in zip(results["gnnone"].history, results["dgl"].history):
            assert a.loss == pytest.approx(b.loss)

    def test_gnnone_epoch_faster_than_dgl(self, train_setup):
        graph, data = train_setup
        times = {}
        for backend in ("gnnone", "dgl"):
            model = GAT(data.feature_length, 8, data.num_classes, num_layers=2,
                        backend=backend, seed=1)
            times[backend] = Trainer(model, graph, data).fit(2).epoch_sim_us
        assert times["gnnone"] < times["dgl"]

    def test_projection(self, train_setup):
        # Projection is exact because epoch 0 simulates every launch cold
        # and later epochs replay the cached plans at the same sim time.
        graph, data = train_setup
        clear_plan_cache()
        model = GCN(data.feature_length, 8, data.num_classes, seed=1)
        result = Trainer(model, graph, data).fit(3)
        assert [r.sim_us for r in result.history] == [result.history[0].sim_us] * 3
        assert get_plan_cache().hits > 0

    def test_buckets_populated(self, train_setup):
        graph, data = train_setup
        model = GCN(data.feature_length, 8, data.num_classes, seed=1)
        result = Trainer(model, graph, data).fit(1)
        assert any(k.startswith("spmm") for k in result.buckets)
        assert "gemm" in result.buckets


class TestMemoryModel:
    def _fits(self, key: str, backend, model="gcn", hidden=16, layers=2):
        from repro.sparse.datasets import get_spec

        spec = get_spec(key)
        return fits_on_device(
            A100, spec.paper_vertices, spec.paper_edges, spec.feature_length,
            hidden, spec.num_classes, layers, backend, model=model,
        )

    def test_paper_oom_boundary_gcn(self):
        """Fig 7: GNNOne trains GCN on G17; DGL OOMs; both OOM on G16/G18."""
        assert self._fits("G17", GNNONE_BACKEND)
        assert not self._fits("G17", DGL_BACKEND)
        assert not self._fits("G16", GNNONE_BACKEND)
        assert not self._fits("G16", DGL_BACKEND)
        assert not self._fits("G18", GNNONE_BACKEND)
        assert not self._fits("G18", DGL_BACKEND)

    def test_medium_datasets_fit_for_everyone(self):
        for key in ("G10", "G14", "G15"):
            assert self._fits(key, GNNONE_BACKEND)
            assert self._fits(key, DGL_BACKEND)

    def test_components_positive(self):
        fp = training_footprint(10**6, 10**7, 128, 16, 10, 2, GNNONE_BACKEND)
        assert fp.total_bytes == sum(fp.components.values())
        assert all(v >= 0 for v in fp.components.values())

    def test_gat_costs_more_than_gcn(self):
        gcn = training_footprint(10**6, 10**8, 128, 16, 10, 2, GNNONE_BACKEND, model="gcn")
        gat = training_footprint(10**6, 10**8, 128, 16, 10, 2, GNNONE_BACKEND, model="gat")
        assert gat.total_bytes > gcn.total_bytes
