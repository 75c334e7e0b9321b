"""Observability layer: spans, exporters, trace analysis, CLI."""

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


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.trace_to(path):
            with obs.span("a", dataset="G3", f=16) as sp:
                sp.add_sim_us(1.5)
                with obs.span("b"):
                    pass
        records, dropped = obs.read_trace_lenient(path)
        assert dropped == 0
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
        (rec,), _ = obs.read_trace_lenient(path)
        assert rec["attrs"] == {"scalar": 1.5, "count": 3, "arr": [1, 2]}

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
        fold = obs.fold_trace(records)
        assert len(fold.rows) == 2
        row = fold.rows["bench.spmm kernel=gnnone dataset=G3 f=16"]
        assert row.sim_us == 40.0 and row.count == 2
        assert row.ok_sims == [10.0, 30.0]
        lines = obs.format_summary(fold).splitlines()
        assert lines[2].startswith("bench.spmm kernel=dgl dataset=G3 f=16")  # heaviest first

    def test_percentile(self):
        values = list(range(100, 0, -1))  # 100..1, unsorted on purpose
        assert obs.percentile(values, 50) == pytest.approx(50.5)
        assert obs.percentile(values, 95) == pytest.approx(95.05)
        assert obs.percentile(values, 0) == 1.0 and obs.percentile(values, 100) == 100.0
        assert obs.percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            obs.percentile(values, 101)


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
        from repro.bench import time_kernel

        with obs.capture() as records:
            t = time_kernel("spmm", "gnnone", "G3", 16)
            oom = time_kernel("spmm", "gnnone", "G18", 64)
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


def _rec(rtype, name, span_id, parent_id=None, wall_ms=1.0, sim_us=None,
         status="ok", **attrs):
    rec = {"type": rtype, "name": name, "span_id": span_id,
           "parent_id": parent_id, "start_s": 100.0 + span_id, "attrs": attrs}
    if rtype == "span":
        rec.update(wall_ms=wall_ms, sim_us=sim_us, status=status)
    return rec


_LAUNCH = {"kind": "spmm", "kernel": "gnnone", "format": "coo", "f": 8}
_GOLDEN_RECORDS = [
    _rec("span", "kernel.spmm", 1, 20, wall_ms=0.5, status="error",
         error="SimulatedFault", **_LAUNCH),
    _rec("span", "gnnone.stage1", 2, 3, wall_ms=0.4),
    _rec("span", "kernel.spmm", 3, 20, wall_ms=2.0, sim_us=10.0, cached=False,
         cost_wall_ms=0.75, dram_bytes=2e6,
         kind_cycles={"load": 600.0, "compute": 300.0, "reduce": 60.0,
                      "store": 40.0},
         counters={"load_instrs": 100.0}, occupancy_warps_per_sm=32,
         sm_imbalance=1.25, **_LAUNCH),
    _rec("event", "resilience.plan_invalidated", 4, 20),
    _rec("span", "kernel.spmm", 5, 20, wall_ms=0.25, sim_us=10.0, cached=True,
         dram_bytes=2e6,
         kind_cycles={"load": 600.0, "compute": 300.0, "reduce": 60.0,
                      "store": 40.0},
         counters={"load_instrs": 100.0}, occupancy_warps_per_sm=32,
         sm_imbalance=1.5, **_LAUNCH),
    _rec("span", "train.epoch", 10, wall_ms=2.0, sim_us=5.0, status="error",
         model="GCN", error="SimulatedFault"),
    _rec("span", "bench.spmm", 20, wall_ms=3.0, sim_us=20.0, kernel="gnnone",
         dataset="G3", f=8, outcome="ok"),
    _rec("event", "resilience.fault_injected", 21, site="plancache.poison"),
    _rec("event", "resilience.checkpoint_save", 22),
    _rec("event", "resilience.checkpoint_restore", 23),
    _rec("span", "serve.batch", 30, wall_ms=0.5, sim_us=4.0, kind="propagate",
         occupancy=2),
    _rec("span", "serve.request", 31, wall_ms=1.0, kind="propagate"),
    _rec("span", "serve.request", 32, wall_ms=3.0, kind="propagate"),
    _rec("span", "serve.rpc", 33, wall_ms=1.5, op="propagate"),
    _rec("event", "serve.shed", 34),
    _rec("event", "serve.degraded", 35),
    _rec("event", "serve.timeout", 36),
    _rec("event", "serve.deadline_shed", 37),
    _rec("event", "serve.breaker", 38, state="open"),
    _rec("event", "serve.client_retry", 39),
]

_GOLDEN_SUMMARY = """\
span                                                              count         sim us    wall ms  err
------------------------------------------------------------------------------------------------------
bench.spmm kernel=gnnone dataset=G3 f=8                               1           20.0       3.00    0
kernel.spmm kind=spmm kernel=gnnone f=8                               3           20.0       2.75    1
train.epoch model=GCN                                                 1            5.0       2.00    1
serve.batch kind=propagate                                            1            4.0       0.50    0
serve.request kind=propagate                                          2            0.0       4.00    0
serve.rpc                                                             1            0.0       1.50    0
gnnone.stage1                                                         1            0.0       0.40    0
7 span identities, 49.0 total simulated us
plan cache: 1/2 kernel launches replayed from cache (50% hit rate)
resilience: 1 fault(s) injected, 1 plan invalidation(s), 1 checkpoint restore(s), 1 checkpoint save(s)
serve: 2 request(s) served, 1 shed, 1 batch(es) at 2.0 mean occupancy, latency p50 2.00 ms / p99 2.98 ms, 1 timeout(s), 1 degrade(s)-to-unbatched, 1 deadline-shed, 1 breaker transition(s), 1 rpc(s), 1 client retry(ies)
"""

_GOLDEN_PROFILE = """\
kernel identity                                               n  warm       sim us   wall ms  DRAM MB  ld%  cp%  rd%  st%  occ   imb
------------------------------------------------------------------------------------------------------------------------------------
kernel.spmm kind=spmm kernel=gnnone f=8                       2   50%         20.0      2.25     4.00  60%  30%   6%   4%   32  1.50

top 1 hotspots by simulated time:
  1. kernel.spmm kind=spmm kernel=gnnone f=8  20.0 us (100.0% of total)

cold-path planning wall time (host, saved on warm replays):
  kernel.spmm kind=spmm kernel=gnnone f=8: stage1 0.40ms, cost-model 0.75ms

1 kernel identities, 20.0 total simulated us, 1/2 warm launches
"""

_GOLDEN_BASELINE = """\
{
  "identities": {
    "bench.spmm kernel=gnnone dataset=G3 f=8": {
      "count": 1,
      "sim_us_median": 20.0
    },
    "kernel.spmm kind=spmm kernel=gnnone f=8": {
      "count": 2,
      "sim_us_median": 10.0
    },
    "serve.batch kind=propagate": {
      "count": 1,
      "sim_us_median": 4.0
    }
  },
  "label": "golden",
  "runs": 1,
  "schema_version": 2
}
"""


class TestGoldenViews:
    """Every trace view, as exact text, over one hand-built trace."""

    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in _GOLDEN_RECORDS))
        return path

    def test_summary_text(self, trace, capsys):
        assert obs_main(["summary", str(trace)]) == 0
        assert capsys.readouterr().out == _GOLDEN_SUMMARY

    def test_profile_text(self, trace, capsys):
        assert obs_main(["profile", str(trace)]) == 0
        assert capsys.readouterr().out == _GOLDEN_PROFILE

    def test_baseline_document(self, trace, tmp_path, capsys):
        out = tmp_path / "golden.json"
        assert obs_main(["baseline", str(trace), "-o", str(out),
                         "--label", "golden"]) == 0
        assert capsys.readouterr().out == f"baseline {out}: 3 identities from 1 run(s)\n"
        assert out.read_text() == _GOLDEN_BASELINE
