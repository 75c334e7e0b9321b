"""Fault injection, validation boundary, and every recovery path.

The contract under test: with injection armed, every operation either
recovers **bit-identically** to its fault-free result or raises a typed
``repro.errors`` subclass — never a raw IndexError/ValueError from deep
inside scipy, and never a silently wrong number.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import get_plan_cache
from repro.core.plancache import CachedLaunch
from repro.errors import (
    ConfigError,
    FaultInjectedError,
    GraphValidationError,
    TrainingDivergedError,
)
from repro.kernels.gnnone import GnnOneSpMM
from repro.nn import GCN, GraphData, Trainer, synthesize
from repro.resilience import (
    CheckpointManager,
    FaultInjector,
    TrainSnapshot,
    ValidationReport,
    ensure_structure_validated,
    fault_profile,
    no_faults,
    parse_profile,
    validate_graph,
)
from repro.resilience.faults import PROFILES
from repro.sparse import COOMatrix
from repro.sparse.datasets import load_dataset


def _spmm_operands(coo, F, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(coo.nnz), rng.standard_normal((coo.num_cols, F))


# --------------------------------------------------------------- injector
class TestFaultInjector:
    def test_schedule_is_a_pure_function_of_the_seed(self):
        a = FaultInjector({"net.conn_drop": 0.3}, seed=99)
        b = FaultInjector({"net.conn_drop": 0.3}, seed=99)
        seq_a = [a.fire("net.conn_drop") for _ in range(200)]
        seq_b = [b.fire("net.conn_drop") for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_different_seeds_differ(self):
        a = FaultInjector({"net.conn_drop": 0.3}, seed=1)
        b = FaultInjector({"net.conn_drop": 0.3}, seed=2)
        assert [a.fire("net.conn_drop") for _ in range(200)] != [
            b.fire("net.conn_drop") for _ in range(200)
        ]

    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.floats(0.05, 1.0),
        max_burst=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_burst_is_bounded_by_construction(self, seed, rate, max_burst):
        """No site ever fires more than max_burst times consecutively,
        so a bounded retry/rollback budget always reaches a clean try."""
        inj = FaultInjector({"s": rate}, seed=seed, max_burst=max_burst)
        run = longest = 0
        for _ in range(300):
            if inj.fire("s"):
                run += 1
                longest = max(longest, run)
            else:
                run = 0
        assert longest <= max_burst

    def test_unarmed_site_never_fires(self):
        inj = FaultInjector({"s": 0.5}, seed=7)
        assert not inj.armed("other")
        assert not any(inj.fire("other") for _ in range(100))

    def test_maybe_raise_is_typed(self):
        inj = FaultInjector({"s": 1.0}, seed=0)
        with pytest.raises(FaultInjectedError):
            inj.maybe_raise("s")

    def test_parse_profile(self):
        assert parse_profile(None) == {}
        assert parse_profile("") == {}
        assert parse_profile("none") == {}
        assert parse_profile("chaos") == PROFILES["chaos"]
        assert parse_profile("a=0.5, b=1") == {"a": 0.5, "b": 1.0}
        with pytest.raises(ConfigError):
            parse_profile("not-a-profile")
        with pytest.raises(ConfigError):
            parse_profile("a=nope")
        with pytest.raises(ConfigError):
            parse_profile("a=1.5")

    def test_fault_profile_context_restores_previous(self):
        from repro.resilience.faults import get_injector

        before = get_injector()
        with fault_profile("chaos", seed=5) as inj:
            assert get_injector() is inj
            assert inj.enabled
        assert get_injector() is before

    def test_no_faults_disables_everything(self):
        with no_faults() as inj:
            assert not inj.enabled
            assert not inj.fire("net.conn_drop")


# ------------------------------------------------------------- validation
class TestValidationBoundary:
    def test_census_duplicates_and_empty_rows(self):
        coo = COOMatrix.from_edges(
            5, 5, np.array([0, 0, 0, 2, 2]), np.array([1, 1, 3, 0, 4]),
            deduplicate=False,
        )
        report = validate_graph(coo)
        assert report.ok
        assert report.duplicate_edges == 1
        assert report.empty_rows == 3  # rows 1, 3, 4
        assert report.csr_ordered and report.index_in_range

    def test_nonfinite_features_reported(self):
        coo = COOMatrix.from_edges(3, 3, np.array([0, 1]), np.array([1, 2]))
        features = np.ones((3, 4))
        features[1, 2] = np.inf
        report = validate_graph(coo, features)
        assert not report.ok and not report.finite_features
        with pytest.raises(GraphValidationError, match="non-finite feature"):
            report.raise_if_invalid()

    def test_unsorted_entries_only_fatal_when_required(self):
        # direct construction: from_edges would sort for us
        coo = COOMatrix(3, 3, np.array([2, 0]), np.array([0, 1]))
        assert validate_graph(coo).ok
        report = validate_graph(coo, require_sorted=True)
        assert not report.ok
        assert report.first_bad_edge == 1

    def test_coo_constructor_names_the_offending_edge(self):
        """Satellite 1: eager validation with a structured error."""
        with pytest.raises(GraphValidationError, match="row index 7") as exc:
            COOMatrix.from_edges(4, 4, np.array([0, 7]), np.array([1, 1]))
        assert exc.value.edge_index == 1
        with pytest.raises(GraphValidationError, match="column index -1") as exc:
            COOMatrix.from_edges(4, 4, np.array([0, 1]), np.array([-1, 1]))
        assert exc.value.edge_index == 0

    def test_report_round_trips_to_dict(self):
        report = ValidationReport(2, 2, 0)
        d = report.to_dict()
        assert d["ok"] is True and d["nnz"] == 0

    def test_ensure_structure_validated_memoizes(self, monkeypatch):
        from repro.resilience import validation

        calls = []

        def spy(coo, *args, **kwargs):
            calls.append(coo)
            return validate_graph(coo, *args, **kwargs)

        monkeypatch.setattr(validation, "validate_graph", spy)
        coo = COOMatrix.from_edges(4, 4, np.array([0, 1, 2]), np.array([1, 2, 3]))
        ensure_structure_validated(coo)
        ensure_structure_validated(coo)
        assert calls == [coo]

    def test_graphdata_warm_rejects_nan_features(self, small_graph):
        features = np.ones((small_graph.num_rows, 3))
        features[0, 0] = np.nan
        with pytest.raises(GraphValidationError, match="non-finite feature"):
            GraphData(small_graph).warm(features)


# ------------------------------------------------- plan & cache integrity
class TestPlanAndCacheIntegrity:
    def test_poisoned_cache_entry_recomputes(self):
        cache = get_plan_cache()
        key = ("tok", "kern", "spmm", 8, None)
        entry = CachedLaunch(cost=None, trace=None)
        with fault_profile("plancache.poison=1.0", seed=0):
            cache.store(key, entry)  # checksum recorded (site armed)
            assert cache.lookup(key) is None  # poison fired: invalidated
            assert cache.invalidations >= 1
            assert cache.invalidations >= 1
            cache.store(key, entry)
            assert cache.lookup(key) is None  # second fire, invalidated again
            cache.store(key, entry)
            # burst bound: after two consecutive fires the third consult
            # is forced quiet and the entry survives verification.
            assert cache.lookup(key) is entry


# ------------------------------------------------------------- trainer
def _make_trainer(hidden=8, seed=3, lr=0.02):
    dataset = load_dataset("G3")
    data = synthesize(dataset, feature_length=8, seed=seed)
    model = GCN(data.feature_length, hidden, data.num_classes, seed=seed)
    return Trainer(model, GraphData(dataset.coo), data, lr=lr)


class TestTrainerResilience:
    def test_nan_guard_reproduces_fault_free_trajectory(self):
        """Loss corruption at every epoch (transient, burst-bounded)
        rolls back and replays to the exact uninterrupted history —
        including dropout masks, via the snapshot's RNG capture."""
        with no_faults():
            reference = _make_trainer().fit(4)
        with fault_profile("train.loss_corrupt=1.0", seed=0), obs.capture() as records:
            result = _make_trainer().fit(4)
        assert obs.resilience_summary(records)["resilience.checkpoint_restore"] > 0
        assert [r.loss for r in result.history] == [r.loss for r in reference.history]
        assert result.test_acc == reference.test_acc

    def test_persistent_corruption_raises_typed_divergence(self):
        with fault_profile("train.loss_corrupt=1.0", seed=0) as inj:
            inj.max_burst = 10**9  # defeat the rollback budget
            with pytest.raises(TrainingDivergedError, match="non-finite"):
                _make_trainer().fit(3)

    def test_resume_without_checkpoint_dir_is_refused(self):
        """``resume=True`` with nowhere to resume from must not silently
        train from epoch 0."""
        with pytest.raises(ConfigError, match="checkpoint_dir"):
            _make_trainer().fit(2, resume=True)

    def test_checkpoint_resume_reproduces_trajectory(self, tmp_path):
        """Satellite: interrupt + resume == uninterrupted, bit-for-bit."""
        with no_faults():
            reference = _make_trainer().fit(6)
            _make_trainer().fit(3, checkpoint_dir=tmp_path)  # "interrupted"
            resumed = _make_trainer().fit(6, checkpoint_dir=tmp_path, resume=True)
        assert [r.loss for r in resumed.history] == [r.loss for r in reference.history]
        assert [r.val_acc for r in resumed.history] == [
            r.val_acc for r in reference.history
        ]
        assert resumed.test_acc == reference.test_acc

    def test_checkpoint_files_and_manager_round_trip(self, tmp_path):
        with no_faults():
            trainer = _make_trainer()
            trainer.fit(3, checkpoint_dir=tmp_path)
        manager = CheckpointManager(tmp_path)
        assert manager.epochs() == [0, 1, 2]
        snapshot, history = manager.load_latest()
        assert snapshot.epoch == 2 and len(history) == 3
        assert all(isinstance(p, np.ndarray) for p in snapshot.params)
        assert snapshot.rng_states  # dropout generators captured

    def test_resume_after_torn_npz_falls_back_to_older_epoch(
        self, tmp_path, capsys
    ):
        """Satellite: a torn ``.npz`` under an already-written meta must
        not kill resume — ``load_latest`` warns, counts, and walks back
        to the newest loadable epoch."""
        with no_faults():
            trainer = _make_trainer()
            trainer.fit(3, checkpoint_dir=tmp_path)
        manager = CheckpointManager(tmp_path)
        npz = manager._npz_path(2)
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])  # torn
        with obs.capture() as records:
            loaded = manager.load_latest()
        assert loaded is not None
        snapshot, history = loaded
        assert snapshot.epoch == 1 and len(history) == 2
        corrupt = [r for r in records if r["name"] == "resilience.checkpoint_corrupt"]
        assert [r["attrs"]["epoch"] for r in corrupt] == [2]
        assert "skipping corrupt checkpoint epoch 2" in capsys.readouterr().err

    def test_resume_with_every_checkpoint_torn_returns_none(self, tmp_path):
        with no_faults():
            _make_trainer().fit(2, checkpoint_dir=tmp_path)
        manager = CheckpointManager(tmp_path)
        for epoch in manager.epochs():
            manager._npz_path(epoch).write_bytes(b"\x00\x01")
        assert manager.load_latest() is None

    def test_snapshot_restore_is_exact(self):
        with no_faults():
            trainer = _make_trainer()
            trainer.fit(1)
            snap = TrainSnapshot.capture(1, trainer.model, trainer.optimizer)
            record_a = trainer.train_epoch(1)
            snap.restore(trainer.model, trainer.optimizer)
            record_b = trainer.train_epoch(1)
        assert record_a.loss == record_b.loss
        assert record_a.val_acc == record_b.val_acc


# ---------------------------------------------------------------- bench
class TestBenchErrorRows:
    def test_sweep_points_records_error_rows_and_continues(self):
        from repro.bench.harness import sweep_points

        def fn(point):
            if point == 2:
                raise ValueError("boom")
            return {"point": point, "status": "ok"}

        with obs.capture() as records:
            rows = sweep_points(
                fn,
                [1, 2, 3],
                label="bench.sweep.test",
                error_row=lambda p, e: {"point": p, "status": "error",
                                        "error": f"{type(e).__name__}: {e}"},
            )
        assert [r["status"] for r in rows] == ["ok", "error", "ok"]
        assert rows[1]["error"] == "ValueError: boom"
        errors = [r for r in records if r["name"] == "bench.point_error"]
        assert [r["attrs"]["point"] for r in errors] == ["2"]

    def test_sweep_points_without_error_row_propagates(self):
        from repro.bench.harness import sweep_points

        def fn(point):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sweep_points(fn, [1], label="bench.sweep.test")

    def test_cli_exits_nonzero_on_point_failures(self, monkeypatch, capsys):
        from repro.bench import __main__ as bench_main
        from repro.bench import harness
        from repro.bench.report import ExperimentResult

        def fake(*, quick=False):
            result = ExperimentResult("fake", "t", ["dataset", "dim", "status"])
            result.add_row(dataset="G3", dim=16, status="ok")
            result.add_row(dataset="G6", dim=16, status="error",
                           error="KernelLaunchError: boom")
            return result

        monkeypatch.setitem(harness._REGISTRY, "fake", fake)
        code = bench_main.main(["fake"])
        captured = capsys.readouterr()
        assert code == 1
        assert "1 sweep point(s) failed" in captured.err
        assert "dataset=G6" in captured.err

    def test_cli_exits_zero_without_failures(self, monkeypatch, capsys):
        from repro.bench import __main__ as bench_main
        from repro.bench import harness
        from repro.bench.report import ExperimentResult

        def fake(*, quick=False):
            result = ExperimentResult("fake", "t", ["dataset", "status"])
            result.add_row(dataset="G3", status="ok")
            return result

        monkeypatch.setitem(harness._REGISTRY, "fake", fake)
        assert bench_main.main(["fake"]) == 0


# ------------------------------------------------------------ obs summary
class TestObsResilienceSummary:
    def test_counts_only_resilience_events(self):
        records = [
            {"type": "event", "name": "resilience.fault_injected"},
            {"type": "event", "name": "resilience.fault_injected"},
            {"type": "event", "name": "resilience.plan_invalidated"},
            {"type": "event", "name": "resilience.checkpoint_restore"},
            {"type": "span", "name": "resilience.plan_invalidated"},  # not an event
            {"type": "event", "name": "other.event"},
        ]
        counts = obs.resilience_summary(records)
        assert counts["resilience.fault_injected"] == 2
        assert counts["resilience.plan_invalidated"] == 1
        assert counts["resilience.checkpoint_restore"] == 1
        assert counts["resilience.checkpoint_save"] == 0

    def test_format_line(self):
        counts = obs.resilience_summary([])
        assert "no faults" in obs.format_resilience_line(counts)
        counts["resilience.fault_injected"] = 3
        counts["resilience.plan_invalidated"] = 2
        line = obs.format_resilience_line(counts)
        assert "3 fault(s) injected" in line and "2 plan invalidation(s)" in line

    def test_chaos_run_events_land_in_the_trace(self, medium_graph):
        w, X = _spmm_operands(medium_graph, 4)
        kernel = GnnOneSpMM()
        with obs.capture() as records:
            with fault_profile("plancache.poison=1.0", seed=0):
                kernel(medium_graph, w, X)  # cold: stores a checksummed plan
                kernel(medium_graph, w, X)  # warm: poison fires, plan recomputed
        counts = obs.resilience_summary(records)
        assert counts["resilience.fault_injected"] > 0
        assert counts["resilience.plan_invalidated"] > 0
