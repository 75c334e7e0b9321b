"""Deep profiler, trace datasets, baselines and the REPRO_OBS kill switch."""

import json

import pytest

from repro import core, obs
from repro.obs.__main__ import main as obs_main
from repro.obs.dataset import records_from_trace, validate_record
from repro.obs.profile import format_timeline, profile_trace, timeline_lanes
from repro.obs.regress import (
    baseline_from_traces,
    collect_identity_stats,
    compare_to_baseline,
)
from repro.obs.spans import set_obs_enabled
from repro.resilience import no_faults
from tests.conftest import make_operands


@pytest.fixture(autouse=True)
def _no_faults(_fresh_injector):
    with no_faults():
        yield


def run_workload(small_graph, rng, repeats: int = 1) -> list[dict]:
    """A tiny traced workload: two SpMM structures, optional warm repeats."""
    vals, X, _, _ = make_operands(small_graph, 8, rng)
    with obs.capture() as records:
        for _ in range(1 + repeats):
            core.spmm(small_graph, vals, X)
            core.spmm(small_graph, vals, X[:, :4])
    return list(records)


class TestCounterAttachment:
    def test_kernel_span_carries_cost_internals(self, small_graph, rng):
        records = run_workload(small_graph, rng, repeats=0)
        kernels = [r for r in records if r["name"] == "kernel.spmm"]
        assert kernels
        attrs = kernels[0]["attrs"]
        # Hardware-model counters from the CostReport / KernelTrace.
        assert attrs["kind_cycles"] and set(attrs["kind_cycles"]) <= {
            "load", "compute", "reduce", "store"
        }
        assert attrs["counters"]["load_instrs"] > 0
        assert attrs["dram_bytes"] > 0
        assert attrs["cycles"] > 0
        assert attrs["occupancy_warps_per_sm"] > 0
        assert attrs["occupancy_limiter"]
        assert attrs["sm_imbalance"] >= 1.0
        # Launch geometry + device constants for the dataset exporter.
        assert attrs["grid_ctas"] > 0 and attrs["threads_per_cta"] > 0
        assert attrs["device_num_sms"] > 0 and attrs["device_clock_ghz"] > 0
        assert attrs["config"]
        # Graph structural census (memoized per structure token).
        graph = attrs["graph"]
        assert graph["num_vertices"] == small_graph.num_rows
        assert graph["num_edges"] == small_graph.nnz
        assert graph["avg_degree"] > 0
        # Cold launch pays (and reports) the cost-model wall time.
        assert attrs["cached"] is False and attrs["cost_wall_ms"] > 0

    def test_warm_replay_still_carries_counters(self, small_graph, rng):
        records = run_workload(small_graph, rng, repeats=1)
        warm = [
            r for r in records
            if r["name"].startswith("kernel.") and r["attrs"].get("cached")
        ]
        assert warm
        for rec in warm:
            assert rec["attrs"]["kind_cycles"]
            assert rec["attrs"]["counters"]["load_instrs"] > 0
            assert rec["sim_us"] > 0


class TestProfile:
    def test_profile_folds_per_identity(self, small_graph, rng):
        rows = profile_trace(run_workload(small_graph, rng, repeats=2))
        assert len(rows) == 2  # two structures (f=8, f=4)
        for row in rows:
            assert row.count == 3
            assert row.warm == 2 and row.warm_share == pytest.approx(2 / 3)
            assert row.sim_us > 0 and row.wall_ms > 0
            assert abs(sum(row.stage_share(k) for k in row.kind_cycles) - 1.0) < 1e-9
        # Sorted heaviest-first by simulated time.
        assert rows[0].sim_us >= rows[1].sim_us

    def test_plan_stage_wall_charged_to_kernel(self, small_graph, rng):
        records = run_workload(small_graph, rng, repeats=0)
        rows = profile_trace(records)
        if any(r.get("name") == "gnnone.stage1" for r in records):
            assert any(row.stage_wall_ms for row in rows)

    def test_profile_cli(self, small_graph, rng, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as fh:
            for rec in run_workload(small_graph, rng):
                fh.write(json.dumps(rec) + "\n")
        assert obs_main(["profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "hotspots by simulated time" in out
        assert "kernel.spmm" in out

    def test_timeline_lanes_and_cli(self, small_graph, rng, tmp_path, capsys):
        records = run_workload(small_graph, rng)
        lanes = timeline_lanes(records)
        assert "main" in lanes and lanes["main"]
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        assert obs_main(["timeline", str(trace), "--detail"]) == 0
        assert "ms busy" in capsys.readouterr().out


class TestDataset:
    def test_records_validate_against_schema(self, small_graph, rng):
        flat, skipped = records_from_trace(run_workload(small_graph, rng, repeats=1))
        assert flat and skipped == 0
        for record in flat:
            assert validate_record(record) == []
            assert record["sim_us"] > 0
            assert record["nnz"] == small_graph.nnz

    def test_jsonl_round_trip_via_cli(self, small_graph, rng, tmp_path):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as fh:
            for rec in run_workload(small_graph, rng, repeats=1):
                fh.write(json.dumps(rec) + "\n")
        out = tmp_path / "features.jsonl"
        assert obs_main(["dataset", str(trace), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # 2 passes x 2 structures
        for line in lines:
            record = json.loads(line)
            assert validate_record(record) == []
            assert record["trace"] == str(trace)

    def test_pre_v2_spans_are_skipped_not_emitted(self):
        legacy = {
            "type": "span", "name": "kernel.spmm", "status": "ok",
            "span_id": 1, "parent_id": None, "start_s": 0.0,
            "wall_ms": 1.0, "sim_us": 2.0,
            "attrs": {"kind": "spmm", "cached": False},
        }
        flat, skipped = records_from_trace([legacy])
        assert flat == [] and skipped == 1


class TestBaselineRegress:
    def _trace_file(self, tmp_path, records, name="t.jsonl"):
        path = tmp_path / name
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        return path

    def test_identical_rerun_passes(self, small_graph, rng, tmp_path):
        records = run_workload(small_graph, rng)
        trace = self._trace_file(tmp_path, records)
        base = tmp_path / "base.json"
        assert obs_main(["baseline", str(trace), "-o", str(base)]) == 0
        assert (
            obs_main(["regress", str(base), str(trace), "--fail-on-regress"]) == 0
        )

    def test_injected_sim_regression_fails(self, small_graph, rng, tmp_path):
        records = run_workload(small_graph, rng)
        trace = self._trace_file(tmp_path, records)
        base = tmp_path / "base.json"
        assert obs_main(["baseline", str(trace), "-o", str(base)]) == 0
        slow = []
        for rec in records:
            rec = dict(rec)
            if isinstance(rec.get("sim_us"), (int, float)):
                rec["sim_us"] *= 1.5
            slow.append(rec)
        slow_trace = self._trace_file(tmp_path, slow, "slow.jsonl")
        assert (
            obs_main(["regress", str(base), str(slow_trace), "--fail-on-regress"])
            == 1
        )
        # Informational mode still exits 0.
        assert obs_main(["regress", str(base), str(slow_trace)]) == 0

    @pytest.mark.parametrize(
        ("scale", "gated_exit"), [(1 + 5e-7, 0), (1.2, 1)], ids=["drift", "slow"]
    )
    def test_sim_rtol_tolerance(self, small_graph, rng, tmp_path, scale,
                                gated_exit):
        records = run_workload(small_graph, rng)
        base = tmp_path / "base.json"
        trace = self._trace_file(tmp_path, records)
        assert obs_main(["baseline", str(trace), "-o", str(base)]) == 0
        scaled = []
        for rec in records:
            rec = dict(rec)
            if isinstance(rec.get("sim_us"), (int, float)):
                rec["sim_us"] *= scale
            scaled.append(rec)
        scaled_trace = self._trace_file(tmp_path, scaled, "scaled.jsonl")
        argv = ["regress", str(base), str(scaled_trace), "--sim-rtol", "1e-6"]
        assert obs_main(argv + ["--fail-on-regress"]) == gated_exit
        assert obs_main(argv) == 0

    def test_multi_trace_baseline_is_one_fold(self, small_graph, rng, tmp_path):
        """N traces fold exactly like their concatenation, run count aside."""
        first = run_workload(small_graph, rng, repeats=2)
        second = []
        for rec in run_workload(small_graph, rng):
            rec = dict(rec)
            if isinstance(rec.get("sim_us"), (int, float)):
                rec["sim_us"] *= 1.5
            second.append(rec)
        a = self._trace_file(tmp_path, first, "a.jsonl")
        b = self._trace_file(tmp_path, second, "b.jsonl")
        both = self._trace_file(tmp_path, first + second, "both.jsonl")
        assert obs_main(["baseline", str(a), str(b), "-o",
                         str(tmp_path / "ab.json")]) == 0
        assert obs_main(["baseline", str(both), "-o",
                         str(tmp_path / "both.json")]) == 0
        ab = json.loads((tmp_path / "ab.json").read_text())
        one = json.loads((tmp_path / "both.json").read_text())
        assert (ab["runs"], one["runs"]) == (2, 1)
        assert ab["identities"] == one["identities"]
        assert ab["identities"] == {
            key: stats.to_json()
            for key, stats in collect_identity_stats(first + second).items()
        }

    def test_disjoint_traces_all_removed_all_added(self, tmp_path, capsys):
        def span(name, sim):
            return {
                "type": "span", "name": name, "status": "ok", "span_id": 1,
                "parent_id": None, "start_s": 0.0, "wall_ms": 1.0,
                "sim_us": sim, "attrs": {},
            }

        old = self._trace_file(tmp_path, [span("old.kernel", 5.0)], "old.jsonl")
        new = self._trace_file(tmp_path, [span("new.kernel", 7.0)], "new.jsonl")
        base = tmp_path / "base.json"
        assert obs_main(["baseline", str(old), "-o", str(base)]) == 0
        capsys.readouterr()
        assert obs_main(["regress", str(base), str(new), "--fail-on-regress"]) == 1
        out = capsys.readouterr().out
        assert "0 identities compared" in out
        assert "REMOVED from current run (gate coverage lost): old.kernel" in out
        assert "added (not in baseline, not gated): new.kernel" in out
        assert "FAIL: 0 sim regression(s), 1 removed, 1 added" in out
        assert obs_main(["regress", str(base), str(new)]) == 0

    def test_removed_identity_fails_added_does_not(self, small_graph, rng):
        records = run_workload(small_graph, rng)
        doc = baseline_from_traces([records])
        half = [
            r for r in records
            if not (r.get("attrs", {}).get("f") == 4 and r["name"].startswith("kernel."))
        ]
        report = compare_to_baseline(doc, half)
        assert report.removed and not report.ok
        # A new identity in the current run is reported but never gates.
        extra = {
            "type": "span", "name": "kernel.new", "status": "ok",
            "span_id": 999, "parent_id": None, "start_s": 0.0,
            "wall_ms": 1.0, "sim_us": 2.0, "attrs": {},
        }
        report = compare_to_baseline(doc, list(records) + [extra])
        assert report.added and report.ok

    def test_sim_determinism_across_reruns(self, small_graph, rng):
        def sims(records):
            return sorted(
                (r["name"], r["attrs"].get("f"), r["sim_us"])
                for r in records
                if r["name"].startswith("kernel.") and "cached" in r["attrs"]
            )

        core.clear_plan_cache()
        a = sims(run_workload(small_graph, rng, repeats=1))
        core.clear_plan_cache()
        b = sims(run_workload(small_graph, rng, repeats=1))
        assert a == b  # bit-identical, cold and warm alike


class TestKillSwitch:
    def test_set_obs_enabled_off_nulls_spans_and_metrics(self):
        try:
            set_obs_enabled(False)
            assert not obs.obs_enabled()
            with obs.capture() as records:
                with obs.span("x", a=1) as sp:
                    assert sp is obs.NULL_SPAN
                obs.event("tick")
            assert records == []
            counter = obs.get_metrics().counter("c")
            counter.inc()
            hist = obs.get_metrics().histogram("h")
            hist.observe(5.0)
        finally:
            set_obs_enabled(None)
        assert obs.obs_enabled()
        # The real registry never saw the killed instruments.
        snap = obs.get_metrics().snapshot()
        assert snap["counters"].get("c", 0) == 0
        assert "h" not in snap["histograms"]

    def test_env_switch(self, repro_env):
        from repro.obs import spans

        repro_env(REPRO_OBS="off")
        set_obs_enabled(None)  # re-read the setting
        try:
            assert not spans.obs_enabled()
        finally:
            repro_env(REPRO_OBS=None)
            set_obs_enabled(None)
        assert spans.obs_enabled()

    def test_kernels_still_compute_when_killed(self, small_graph, rng):
        import numpy as np

        vals, X, _, _ = make_operands(small_graph, 8, rng)
        ref, ref_cost = core.spmm(small_graph, vals, X)
        try:
            set_obs_enabled(False)
            out, cost = core.spmm(small_graph, vals, X)
        finally:
            set_obs_enabled(None)
        assert np.array_equal(out, ref)
        assert cost.time_us == ref_cost.time_us


class TestLenientReader:
    def test_corrupt_lines_skipped_with_count(self, small_graph, rng, tmp_path):
        trace = tmp_path / "t.jsonl"
        records = run_workload(small_graph, rng)
        with open(trace, "w") as fh:
            fh.write("this is not json\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
            fh.write('{"truncated": ')  # crashed-run partial flush
        loaded, dropped = obs.read_trace_lenient(trace)
        assert len(loaded) == len(records) and dropped == 2

    def test_summary_cli_tolerates_corruption(self, small_graph, rng, tmp_path,
                                              capsys):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as fh:
            fh.write("garbage\n")
            for rec in run_workload(small_graph, rng):
                fh.write(json.dumps(rec) + "\n")
        assert obs_main(["summary", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 corrupt line(s)" in captured.err
        assert "span identities" in captured.out


class TestTimelineOverlap:
    def test_overlapping_async_spans_render(self):
        """Retroactively-emitted serve spans overlap arbitrarily on one
        lane; the busy union must never exceed the window and the render
        must not raise."""
        records = [
            {"type": "span", "name": "serve.request", "span_id": i,
             "parent_id": None, "start_s": 100.0 + 0.001 * (i % 3),
             "wall_ms": 5.0 - i % 4, "sim_us": None, "status": "ok",
             "attrs": {"kind": "propagate"}}
            for i in range(8)
        ]
        records.append(
            {"type": "span", "name": "serve.batch", "span_id": 99,
             "parent_id": None, "start_s": 100.002, "wall_ms": 2.0,
             "sim_us": 10.0, "status": "ok",
             "attrs": {"worker": "serve", "occupancy": 8}}
        )
        rendered = format_timeline(records)
        assert "serve" in rendered
        for line in rendered.splitlines():
            if "% busy" in line or "busy (" in line:
                pct = int(line.rsplit("(", 1)[1].rstrip("%)"))
                assert 0 <= pct <= 100
