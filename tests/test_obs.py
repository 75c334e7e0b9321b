"""Observability layer: spans, metrics, exporters, trace analysis, CLI."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.__main__ import main as obs_main
from repro.resilience import no_faults


@pytest.fixture(autouse=True)
def _no_faults(_fresh_injector):
    """Exact span/event-count assertions need a fault-free stack
    (fault replays add extra train.epoch spans and resilience events)."""
    with no_faults():
        yield


class TestSpans:
    def test_disabled_is_null(self):
        assert not obs.tracing_enabled()
        with obs.span("x", a=1) as sp:
            assert sp is obs.NULL_SPAN
            sp.set(b=2).add_sim_us(1.0)  # all no-ops
        assert obs.current_span() is None

    def test_nesting_records_parent_links(self):
        with obs.capture() as records:
            with obs.span("outer", k="v") as outer:
                with obs.span("inner") as inner:
                    assert obs.current_span() is inner
                    assert inner.parent_id == outer.span_id
                assert obs.current_span() is outer
        assert [r["name"] for r in records] == ["inner", "outer"]  # close order
        inner_rec, outer_rec = records
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert outer_rec["attrs"] == {"k": "v"}
        assert outer_rec["wall_ms"] >= inner_rec["wall_ms"] >= 0.0

    def test_sim_us_accumulates(self):
        with obs.capture() as records:
            with obs.span("s") as sp:
                sp.add_sim_us(2.0)
                sp.add_sim_us(3.0)
        assert records[0]["sim_us"] == 5.0

    def test_error_status(self):
        with obs.capture() as records:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
        assert records[0]["status"] == "error"
        assert records[0]["attrs"]["error"] == "ValueError"
        assert obs.current_span() is None  # stack unwound

    def test_event_attaches_to_current_span(self):
        with obs.capture() as records:
            with obs.span("parent") as sp:
                obs.event("tick", n=1)
        event = next(r for r in records if r["type"] == "event")
        assert event["name"] == "tick"
        assert event["parent_id"] == sp.span_id
        assert event["attrs"] == {"n": 1}

    def test_capture_is_scoped(self):
        with obs.capture() as records:
            with obs.span("in"):
                pass
        with obs.span("out"):
            pass
        assert [r["name"] for r in records] == ["in"]


class TestMetrics:
    def test_counter_gauge(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7.0
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_histogram_percentiles(self):
        h = obs.Histogram("h")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(95) == pytest.approx(95.05)
        assert h.max == 100.0
        assert h.percentile(0) == 1.0 and h.percentile(100) == 100.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_histogram(self):
        h = obs.Histogram("h")
        assert h.summary() == {
            "count": 0.0, "total": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0
        }

    def test_registry_reset(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot()["counters"] == {}

    def test_kernel_calls_feed_global_metrics(self, small_graph, rng):
        from repro import core

        obs.reset_metrics()
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 8))
        core.spmm(small_graph, vals, X)
        snap = obs.get_metrics().snapshot()
        assert snap["counters"]["kernel.spmm.calls"] == 1.0
        assert snap["histograms"]["kernel.spmm.time_us"]["count"] == 1.0


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.trace_to(path):
            with obs.span("a", dataset="G3", f=16) as sp:
                sp.add_sim_us(1.5)
                with obs.span("b"):
                    pass
        records = obs.read_trace(path)
        assert [r["name"] for r in records] == ["b", "a"]
        a = records[1]
        assert a["attrs"] == {"dataset": "G3", "f": 16}
        assert a["sim_us"] == 1.5
        # every line is standalone JSON
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_numpy_attrs_serialize(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.trace_to(path):
            with obs.span("np") as sp:
                sp.set(scalar=np.float64(1.5), count=np.int64(3),
                       arr=np.array([1, 2]))
        (rec,) = obs.read_trace(path)
        assert rec["attrs"] == {"scalar": 1.5, "count": 3, "arr": [1, 2]}

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            obs.read_trace(path)

    def test_render_tree_shape(self):
        with obs.capture() as records:
            with obs.span("root", kernel="gnnone"):
                with obs.span("child") as sp:
                    sp.add_sim_us(3.0)
        text = obs.render_tree(records)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child") and "sim=3.0us" in lines[1]
        assert "kernel=gnnone" in lines[0]
        assert obs.render_tree(records, max_depth=1).count("\n") == 0

    def test_write_metrics_json(self, tmp_path):
        reg = obs.MetricsRegistry()
        reg.histogram("h").observe(2.0)
        out = obs.write_metrics_json(tmp_path / "m.json", reg)
        doc = json.loads(out.read_text())
        assert doc["histograms"]["h"]["count"] == 1.0


def _fake_point(name, kernel, dataset, f, sim_us):
    return {
        "type": "span", "name": name, "span_id": 1, "parent_id": None,
        "start_s": 0.0, "wall_ms": 1.0, "sim_us": sim_us, "status": "ok",
        "attrs": {"kernel": kernel, "dataset": dataset, "f": f},
    }


class TestAnalysis:
    def test_summarize_groups_by_identity(self):
        records = [
            _fake_point("bench.spmm", "gnnone", "G3", 16, 10.0),
            _fake_point("bench.spmm", "gnnone", "G3", 16, 30.0),
            _fake_point("bench.spmm", "dgl", "G3", 16, 100.0),
        ]
        rows = obs.summarize(records)
        assert len(rows) == 2
        assert rows[0].key == "bench.spmm kernel=dgl dataset=G3 f=16"  # heaviest first
        assert rows[1].sim_us == 40.0 and rows[1].count == 2
        assert "bench.spmm" in obs.format_summary(rows)


class TestCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.trace_to(path):
            with obs.span("bench.spmm", kernel="gnnone", dataset="G3", f=16) as sp:
                sp.add_sim_us(12.5)
        return path

    def test_summary(self, trace_file, capsys):
        assert obs_main(["summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "kernel=gnnone" in out and "12.5" in out

    def test_tree(self, trace_file, capsys):
        assert obs_main(["tree", str(trace_file)]) == 0
        assert "bench.spmm" in capsys.readouterr().out


class TestInstrumentation:
    def test_kernel_span_carries_cost_fields(self, small_graph, rng):
        from repro import core

        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 16))
        with obs.capture() as records:
            _, report = core.spmm(small_graph, vals, X)
        (kernel_rec,) = [r for r in records if r["name"] == "kernel.spmm"]
        attrs = kernel_rec["attrs"]
        assert attrs["time_us"] == report.time_us
        assert attrs["dram_bytes"] == report.dram_bytes
        assert attrs["sm_imbalance"] == report.sm_imbalance
        assert attrs["occupancy_limiter"] == report.occupancy.limiter
        assert kernel_rec["sim_us"] == report.time_us
        # the GNNOne stage pipeline nests under the kernel span
        names = {r["name"] for r in records}
        assert {"gnnone.stage1", "gnnone.schedule", "gnnone.stage2"} <= names
        for name in ("gnnone.stage1", "gnnone.schedule", "gnnone.stage2"):
            (rec,) = [r for r in records if r["name"] == name]
            assert rec["parent_id"] == kernel_rec["span_id"]

    def test_bench_point_spans(self):
        from repro.bench import time_spmm

        with obs.capture() as records:
            t = time_spmm("gnnone", "G3", 16)
            oom = time_spmm("gnnone", "G18", 64)
        assert t is not None and oom is None
        points = [r for r in records if r["name"] == "bench.spmm"]
        assert len(points) == 2
        ok, failed = points
        assert ok["attrs"]["outcome"] == "ok" and ok["sim_us"] == t
        assert failed["attrs"]["outcome"] == "oom" and failed["sim_us"] is None

    def test_trainer_epoch_spans_fold_clock_buckets(self):
        from repro.nn import GCN, GraphData, Trainer, synthesize
        from repro.sparse.datasets import load_dataset

        dataset = load_dataset("G0")
        data = synthesize(dataset, feature_length=8, seed=3)
        model = GCN(data.feature_length, 8, data.num_classes, seed=3)
        trainer = Trainer(model, GraphData(dataset.coo), data)
        with obs.capture() as records:
            result = trainer.fit(2)
        fits = [r for r in records if r["name"] == "train.fit"]
        epochs = [r for r in records if r["name"] == "train.epoch"]
        assert len(fits) == 1 and len(epochs) == 2
        assert epochs[0]["sim_us"] == result.history[0].sim_us
        assert epochs[0]["attrs"]["buckets"]  # SimClock breakdown attached
        assert fits[0]["attrs"]["epochs"] == 2
        # per-layer module spans appear under the epochs
        assert any(r["name"].startswith("nn.") for r in records)

    def test_unified_plan_span(self, small_graph):
        from repro.core import plan_unified_load

        with obs.capture() as records:
            plan_unified_load(small_graph, 32)
        (rec,) = [r for r in records if r["name"] == "engine.plan"]
        assert rec["attrs"]["cache_size"] == 128
        assert "load_balance" in rec["attrs"]
