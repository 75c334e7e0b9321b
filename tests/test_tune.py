"""repro.tune tests: model determinism, regret bound, wiring.

The load-bearing properties:

* **determinism** — same records + same seed => bit-identical persisted
  artifact;
* **the regret contract** — model-pruned search stays within 5% of the
  exhaustive answer on the seed graphs while simulating <= 3 of 8
  candidates;
* **safety of the wiring** — the learned strategy never breaks
  ``autotune``: no model means silent fallback to exact, the memo key
  separates strategies, and the memo itself is now thread-safe and
  bounded.
"""

from __future__ import annotations

import importlib
import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.autotune import (
    DEFAULT_CACHE_SIZES,
    autotune,
    clear_tune_cache,
    resolve_strategy,
    tune_cache_len,
)
from repro.errors import ConfigError
from repro.obs.dataset import export_dataset, split_fraction, split_side
from repro.tune import (
    FEATURE_NAMES,
    CostModel,
    evaluate_model,
    feature_matrix,
    featurize_record,
    learned_autotune,
    load_model,
    measure_regret,
    parse_config_knobs,
    rank_candidates,
    spearman,
    train_model,
)
from repro.tune.__main__ import main as tune_cli
from repro.tune.__main__ import read_records

# the module, not the function ``repro.core`` re-exports under its name
autotune_module = importlib.import_module("repro.core.autotune")

KINDS = ("spmm", "sddmm")
FEATURE_LENGTHS = (8, 16)


@pytest.fixture(scope="module")
def sweep_corpus(tmp_path_factory):
    """Traced exhaustive sweep over two structurally distinct graphs."""
    from repro.core.plancache import clear_plan_cache
    from repro.sparse import generators

    graphs = {
        "pl500": generators.power_law(500, 8.0, seed=42),
        "grid40": generators.road_grid(40, seed=3),
    }
    work = tmp_path_factory.mktemp("tune")
    trace = work / "trace.jsonl"
    with obs.trace_to(trace):
        for A in graphs.values():
            for kind in KINDS:
                for f in FEATURE_LENGTHS:
                    clear_plan_cache()
                    clear_tune_cache()
                    autotune(A, f, kind, strategy="exact")
    data = work / "records.jsonl"
    written, _ = export_dataset([trace], data)
    assert written > 0
    return {
        "graphs": graphs,
        "work": work,
        "trace": trace,
        "data": data,
        "records": read_records(data),
    }


@pytest.fixture(scope="module")
def model(sweep_corpus) -> CostModel:
    return train_model(sweep_corpus["records"], seed=0)


def _rewrite_meta(path, **changes):
    """Rewrite an artifact's meta.json as another build would have."""
    import zipfile

    with zipfile.ZipFile(path) as zf:
        payload = {n: zf.read(n) for n in zf.namelist()}
    meta = json.loads(payload["meta.json"])
    meta.update(changes)
    payload["meta.json"] = json.dumps(meta).encode()
    with zipfile.ZipFile(path, "w") as zf:
        for name, blob in payload.items():
            zf.writestr(name, blob)
    return path


# ---------------------------------------------------------------- featurizer


class TestFeaturizer:
    def test_parse_config_knobs_from_token(self):
        token = ("('repro...GnnOneSpMM', GnnOneConfig(cache_size=256, "
                 "schedule='round_robin', threads_per_cta=64))")
        assert parse_config_knobs(token) == (256, "round_robin", 64)

    def test_parse_config_knobs_from_kernel_name(self):
        cache, sched, tpc = parse_config_knobs("", "gnnone-spmm[c64,consecutive]")
        assert (cache, sched) == (64, "consecutive")
        assert tpc == 128

    def test_parse_config_knobs_defaults(self):
        assert parse_config_knobs("", "dgl-spmm") == (128, "consecutive", 128)

    def test_record_vector_shape_and_finiteness(self, sweep_corpus):
        X = feature_matrix(sweep_corpus["records"])
        assert X.shape == (len(sweep_corpus["records"]), len(FEATURE_NAMES))
        assert np.isfinite(X).all()

    def test_config_knobs_differentiate_vectors(self, sweep_corpus):
        # Records of one graph at one F differ only by config — the
        # featurizer must not collapse them, or ranking is impossible.
        recs = [r for r in sweep_corpus["records"]
                if r["kind"] == "spmm" and r["f"] == 8 and r["rows"] == 500]
        vecs = {tuple(featurize_record(r)) for r in recs}
        configs = {r["config"] for r in recs}
        assert len(vecs) == len(configs)


# ------------------------------------------------------------------- model


class TestModelDeterminism:
    def test_bit_identical_artifacts(self, sweep_corpus, tmp_path):
        a = train_model(sweep_corpus["records"], seed=0)
        b = train_model(sweep_corpus["records"], seed=0)
        pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_save_load_round_trip(self, model, sweep_corpus, tmp_path):
        path = tmp_path / "m.npz"
        model.save(path)
        loaded = load_model(path)
        X = feature_matrix(sweep_corpus["records"])
        np.testing.assert_array_equal(model.predict(X), loaded.predict(X))
        assert loaded.meta["feature_names"] == list(FEATURE_NAMES)

    def test_stale_feature_version_refuses_to_load(self, model, tmp_path):
        path = _rewrite_meta(model.save(tmp_path / "m.npz"), feature_version=999)
        with pytest.raises(ConfigError, match="retrain"):
            load_model(path)

    def test_non_ridge_artifact_refuses_to_load(self, model, tmp_path):
        path = _rewrite_meta(model.save(tmp_path / "m.npz"), algorithm="gbr")
        with pytest.raises(ConfigError, match="retrain"):
            load_model(path)

    def test_garbage_artifact_raises_config_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(ConfigError):
            load_model(path)

    def test_empty_training_set_raises(self):
        with pytest.raises(ConfigError):
            train_model([])


class TestModelQuality:
    def test_rank_correlation_on_training_sweep(self, model, sweep_corpus):
        report = evaluate_model(model, sweep_corpus["records"])
        assert report.rank_correlation >= 0.8
        assert report.mape < 0.5

    def test_spearman_basics(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(a, a) == pytest.approx(1.0)
        assert spearman(a, -a) == pytest.approx(-1.0)


# ------------------------------------------------------------------ search


class TestLearnedSearch:
    def test_regret_bound_on_seed_graphs(self, model, sweep_corpus):
        # The PR's acceptance contract, on this module's graphs: <= 5%
        # simulated-time regret with <= 3 of 8 candidates simulated.
        for name, A in sweep_corpus["graphs"].items():
            for kind in KINDS:
                for f in FEATURE_LENGTHS:
                    rep = measure_regret(A, f, kind, model)
                    assert rep.regret <= 0.05, (name, kind, f, rep)
                    assert rep.trials_simulated <= 3
                    assert rep.trials_avoided == rep.candidates - rep.trials_simulated

    def test_ranking_covers_all_candidates(self, model, small_graph):
        ranked = rank_candidates(small_graph, 16, "spmm", model)
        assert len(ranked) == len(DEFAULT_CACHE_SIZES) * 2
        predicted = [t for _, t in ranked]
        assert predicted == sorted(predicted)

    def test_search_result_is_exact_simulated(self, model, small_graph):
        res = learned_autotune(small_graph, 16, "spmm", model=model)
        exact = autotune(
            small_graph, 16, "spmm",
            cache_sizes=(res.config.cache_size,),
            schedules=(res.config.schedule,),
            strategy="exact",
        )
        assert res.time_us == exact.time_us

    def test_spans_and_counters_emitted(self, model, small_graph, tmp_path):
        obs.reset_metrics()
        trace = tmp_path / "t.jsonl"
        with obs.trace_to(trace):
            learned_autotune(small_graph, 16, "spmm", model=model)
        names = [r.get("name") for r in obs.read_trace(trace)]
        assert "tune.predict" in names
        assert "tune.search" in names
        metrics = obs.get_metrics()
        assert metrics.counter("tune.search.calls").value == 1
        assert metrics.counter("tune.trials_avoided").value == 5


# ---------------------------------------------------------- autotune wiring


class TestAutotuneStrategy:
    def test_exact_memo_identity_preserved(self, small_graph):
        r1 = autotune(small_graph, 16, "spmm")
        r2 = autotune(small_graph, 16, "spmm")
        assert r2 is r1

    def test_learned_strategy_matches_learned_autotune(self, model, small_graph):
        tuned = autotune(small_graph, 16, "spmm", strategy="learned", model=model)
        direct = learned_autotune(small_graph, 16, "spmm", model=model)
        assert tuned.config == direct.config
        assert tuned.time_us == direct.time_us

    def test_learned_and_exact_memoize_separately(self, model, small_graph):
        exact = autotune(small_graph, 16, "spmm", strategy="exact")
        learned = autotune(small_graph, 16, "spmm", strategy="learned",
                           model=model)
        assert len(exact.trials) == 8
        assert len(learned.trials) <= 3
        assert autotune(small_graph, 16, "spmm", strategy="exact") is exact

    def test_learned_without_model_falls_back_to_exact(
        self, small_graph, repro_env
    ):
        repro_env(REPRO_TUNE_MODEL=None)
        obs.reset_metrics()
        result = autotune(small_graph, 16, "spmm", strategy="learned")
        assert len(result.trials) == 8  # exhaustive: the exact fallback
        assert obs.get_metrics().counter("tune.fallback").value == 1

    def test_env_strategy_resolution(self, repro_env):
        repro_env(REPRO_TUNE=None)
        assert resolve_strategy() == "exact"
        repro_env(REPRO_TUNE="learned")
        assert resolve_strategy() == "learned"
        assert resolve_strategy("exact") == "exact"  # an explicit arg wins
        with pytest.raises(ConfigError):
            resolve_strategy("bogus")
        with pytest.raises(ConfigError, match="REPRO_TUNE"):
            repro_env(REPRO_TUNE="bogus")  # no longer a silent exact

    def test_env_model_path_enables_learned(
        self, model, small_graph, tmp_path, repro_env
    ):
        path = tmp_path / "m.npz"
        model.save(path)
        repro_env(REPRO_TUNE="learned", REPRO_TUNE_MODEL=str(path))
        result = autotune(small_graph, 16, "spmm")
        assert len(result.trials) <= 3  # pruned, not exhaustive

    def test_invalid_strategy_arg_raises(self, small_graph):
        with pytest.raises(ConfigError):
            autotune(small_graph, 16, "spmm", strategy="alchemy")


class TestTuneCacheBounds:
    def test_lru_cap_enforced(self, monkeypatch):
        from repro.sparse import generators

        monkeypatch.setattr(autotune_module, "TUNE_CACHE_CAP", 2)
        clear_tune_cache()
        for seed in (1, 2, 3):
            A = generators.power_law(64, 3.0, seed=seed)
            autotune(A, 8, "spmm")
        assert tune_cache_len() == 2

    def test_lru_evicts_oldest(self, monkeypatch):
        from repro.sparse import generators

        monkeypatch.setattr(autotune_module, "TUNE_CACHE_CAP", 2)
        clear_tune_cache()
        graphs = [generators.power_law(64, 3.0, seed=s) for s in (1, 2)]
        first = [autotune(A, 8, "spmm") for A in graphs]
        # touch graph 0, then insert a third: graph 1 must evict
        assert autotune(graphs[0], 8, "spmm") is first[0]
        autotune(generators.power_law(64, 3.0, seed=3), 8, "spmm")
        assert autotune(graphs[0], 8, "spmm") is first[0]  # still resident
        assert autotune(graphs[1], 8, "spmm") is not first[1]  # evicted

    def test_thread_safety_under_concurrent_tuning(self, small_graph):
        clear_tune_cache()
        results, errors = [], []

        def work():
            try:
                results.append(autotune(small_graph, 8, "spmm"))
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len({id(r.config) for r in results}) >= 1
        assert len({r.config for r in results}) == 1
        assert tune_cache_len() == 1

    def test_cache_hit_events_surfaced(self, small_graph, tmp_path):
        trace = tmp_path / "t.jsonl"
        with obs.trace_to(trace):
            autotune(small_graph, 8, "spmm")
            autotune(small_graph, 8, "spmm")
        records = obs.read_trace(trace)
        stats = obs.tune_summary(records)
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        line = obs.format_tune_line(stats)
        assert line.startswith("tune: 1/2 cache hit(s)")


# ---------------------------------------------------------------- dataset


class TestDatasetSplit:
    def test_split_fraction_deterministic(self, sweep_corpus):
        for rec in sweep_corpus["records"]:
            assert split_fraction(rec) == split_fraction(dict(rec))
            assert 0.0 <= split_fraction(rec) < 1.0

    def test_salt_changes_partition(self, sweep_corpus):
        fractions = [split_fraction(r) for r in sweep_corpus["records"]]
        salted = [split_fraction(r, salt="other") for r in sweep_corpus["records"]]
        assert fractions != salted

    def test_exported_splits_partition_the_dataset(self, sweep_corpus, tmp_path):
        trace = sweep_corpus["trace"]
        full, _ = export_dataset([trace], tmp_path / "full.jsonl")
        n_train, _ = export_dataset([trace], tmp_path / "train.jsonl",
                                    split="train")
        n_val, _ = export_dataset([trace], tmp_path / "val.jsonl", split="val")
        assert n_train + n_val == full
        assert n_train > 0 and n_val > 0
        train = read_records(tmp_path / "train.jsonl")
        val = read_records(tmp_path / "val.jsonl")
        assert all(split_side(r) == "train" for r in train)
        assert all(split_side(r) == "val" for r in val)

    def test_invalid_split_arguments(self, sweep_corpus, tmp_path):
        with pytest.raises(ValueError):
            export_dataset([sweep_corpus["trace"]], tmp_path / "x.jsonl",
                           split="test")
        with pytest.raises(ValueError):
            export_dataset([sweep_corpus["trace"]], tmp_path / "x.jsonl",
                           split="val", val_fraction=1.5)


# --------------------------------------------------------------------- CLI


class TestTuneCli:
    def test_train_predict_search_report(self, sweep_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.npz"
        rc = tune_cli([
            "train", "--data", str(sweep_corpus["data"]),
            "--out", str(model_path), "--seed", "0",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["train"]["rank_correlation"] >= 0.8

        rc = tune_cli([
            "predict", "--model", str(model_path),
            "--data", str(sweep_corpus["data"]), "--show", "2",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 2

        rc = tune_cli([
            "search", "--model", str(model_path), "--dataset", "G3",
            "--kind", "spmm", "--f", "16", "--exhaustive",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regret"] <= 0.05
        assert payload["trials_simulated"] <= 3

    def test_train_on_empty_data_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = tune_cli(["train", "--data", str(empty),
                       "--out", str(tmp_path / "m.npz")])
        assert rc == 1


# ----------------------------------------------------------- trainer wiring


class TestTrainerAutotune:
    @pytest.fixture(scope="class")
    def train_setup(self):
        from repro.nn import GraphData, synthesize
        from repro.sparse.datasets import load_dataset

        dataset = load_dataset("G0")  # Cora-scale
        return GraphData(dataset.coo), synthesize(
            dataset, feature_length=16, seed=2
        )

    def test_trainer_pins_tuned_configs(self, train_setup):
        from repro.nn import GCN, Trainer

        graph, data = train_setup
        model = GCN(data.feature_length, 8, data.num_classes, backend="gnnone")
        trainer = Trainer(model, graph, data, autotune=True)
        backend = trainer.model.backend
        assert backend.gnnone_spmm_config is not None
        assert backend.gnnone_sddmm_config is not None
        expected = autotune(graph.coo, data.feature_length, "spmm",
                            device=trainer.device)
        assert backend.gnnone_spmm_config == expected.config
        rec = trainer.train_epoch(0)  # the tuned path actually trains
        assert np.isfinite(rec.loss)

    def test_trainer_default_leaves_backend_untouched(self, train_setup):
        from repro.nn import GCN, Trainer

        graph, data = train_setup
        model = GCN(data.feature_length, 8, data.num_classes, backend="gnnone")
        Trainer(model, graph, data)
        assert model.backend.gnnone_spmm_config is None
        assert model.backend.gnnone_sddmm_config is None
