"""Learned cost model: dependency-light regression over trace records.

Trains on the flat JSONL records :mod:`repro.obs.dataset` exports
(feature half: :mod:`repro.tune.features`; target: ``sim_us``) and
predicts the simulated time of a launch *without* running the
simulator.  The model is pure-numpy ridge regression: L2-regularized
linear regression on standardized features, solved by normal
equations.  The features are log-compressed with explicit
config-structure interactions, so the log-space linear model captures
the multiplicative cost structure the analytic model actually has.

The target is modeled in log space (``log(sim_us)``): simulated times
span four orders of magnitude across the dataset registry, and both
the MAE gate and candidate *ranking* care about relative error.

Artifacts are **bit-deterministic**: training is seeded and touches no
clock, and :meth:`CostModel.save` writes a zip-of-npy (the ``.npz``
layout) through fixed-timestamp entries, so the same seed + the same
records produce byte-identical files — the determinism test and the
perf-regression story both rely on it.  Metadata (feature version,
names, training stats) rides inside the artifact and is verified at
:func:`load_model` time.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.tune.features import FEATURE_NAMES, FEATURE_VERSION, feature_matrix, target_vector

#: artifact format version (independent of the feature layout version)
ARTIFACT_VERSION = 1

#: fixed zip entry timestamp: artifacts must be byte-identical runs apart
_EPOCH = (1980, 1, 1, 0, 0, 0)

#: floor on modeled times; also the log-transform epsilon
_TIME_FLOOR_US = 1e-9


# --------------------------------------------------------------------------
# the model object
# --------------------------------------------------------------------------


@dataclass
class CostModel:
    """A trained launch-time predictor with its persistence metadata."""

    #: feature standardization (fit on the training set)
    mean: np.ndarray
    std: np.ndarray
    #: (d+1,) ridge weights, intercept last
    params: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def predict_log(self, X: np.ndarray) -> np.ndarray:
        """Predicted ``log(sim_us)`` for an ``(n, d)`` feature matrix."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Z = (X - self.mean) / self.std
        return Z @ self.params[:-1] + self.params[-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted simulated microseconds (always positive)."""
        return np.maximum(_TIME_FLOOR_US, np.exp(self.predict_log(X)))

    # -------------------------------------------------------- persistence

    def save(self, path: str | Path) -> Path:
        """Write the versioned artifact (deterministic zip-of-npy)."""
        path = Path(path)
        meta = dict(self.meta)
        meta.update(
            artifact_version=ARTIFACT_VERSION,
            feature_version=FEATURE_VERSION,
            feature_names=list(FEATURE_NAMES),
        )
        arrays = {"mean": self.mean, "std": self.std, "params": self.params}
        path.parent.mkdir(parents=True, exist_ok=True)
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, arr in sorted(arrays.items()):
                buf = io.BytesIO()
                np.save(buf, np.asarray(arr, dtype=np.float64))
                zf.writestr(zipfile.ZipInfo(f"{name}.npy", _EPOCH), buf.getvalue())
            zf.writestr(
                zipfile.ZipInfo("meta.json", _EPOCH),
                json.dumps(meta, sort_keys=True, indent=1),
            )
        return path


def load_model(path: str | Path) -> CostModel:
    """Load a persisted artifact, verifying the feature-layout version."""
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(zf.read("meta.json"))
            arrays = {
                name: np.load(io.BytesIO(zf.read(f"{name}.npy")))
                for name in ("mean", "std", "params")
            }
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as e:
        raise ConfigError(f"cannot load tune model artifact {path}: {e}") from None
    if meta.get("feature_version") != FEATURE_VERSION:
        raise ConfigError(
            f"tune model artifact {path} was trained against featurizer "
            f"v{meta.get('feature_version')}, this build is v{FEATURE_VERSION} "
            f"— retrain (python -m repro.tune train)"
        )
    if meta.get("algorithm", "ridge") != "ridge":
        raise ConfigError(
            f"tune model artifact {path} is a {meta['algorithm']!r} model; "
            f"this build reads ridge models only — retrain"
        )
    if list(meta.get("feature_names", [])) != list(FEATURE_NAMES):
        raise ConfigError(
            f"tune model artifact {path} feature names do not match this "
            f"build's featurizer — retrain"
        )
    return CostModel(
        mean=arrays["mean"], std=arrays["std"], params=arrays["params"], meta=meta
    )


# --------------------------------------------------------------------------
# training and evaluation
# --------------------------------------------------------------------------


def train_model(
    records: Sequence[dict[str, Any]],
    *,
    seed: int = 0,
    l2: float = 1e-3,
) -> CostModel:
    """Fit a :class:`CostModel` on dataset records (deterministic)."""
    if not records:
        raise ConfigError("cannot train a cost model on zero records")
    X = feature_matrix(records)
    y = np.log(np.maximum(_TIME_FLOOR_US, target_vector(records)))
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-12] = 1.0
    Z = (X - mean) / std
    meta: dict[str, Any] = {
        "seed": seed,
        "n_records": int(len(records)),
        "l2": l2,
    }
    A = np.hstack([Z, np.ones((Z.shape[0], 1))])
    reg = l2 * np.eye(A.shape[1])
    reg[-1, -1] = 0.0  # never shrink the intercept
    params = np.linalg.solve(A.T @ A + reg, A.T @ y)
    return CostModel(mean, std, params, meta=meta)


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (average ranks on ties)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2:
        return 1.0
    from scipy.stats import rankdata

    ra, rb = rankdata(a), rankdata(b)
    sa, sb = ra.std(), rb.std()
    if sa < 1e-12 or sb < 1e-12:
        return 1.0
    return float(np.corrcoef(ra, rb)[0, 1])


@dataclass(frozen=True)
class EvalReport:
    """Held-out prediction quality of one model on one record set."""

    n_records: int
    #: mean |log(pred) - log(true)| — relative error in nats
    mae_log: float
    #: mean |pred - true| / true
    mape: float
    #: Spearman rank correlation between predicted and true times
    rank_correlation: float

    def to_dict(self) -> dict[str, float | int]:
        return {
            "n_records": self.n_records,
            "mae_log": self.mae_log,
            "mape": self.mape,
            "rank_correlation": self.rank_correlation,
        }


def evaluate_model(
    model: CostModel, records: Sequence[dict[str, Any]]
) -> EvalReport:
    """Prediction MAE / MAPE / rank-correlation over ``records``."""
    if not records:
        return EvalReport(0, 0.0, 0.0, 1.0)
    X = feature_matrix(records)
    true = np.maximum(_TIME_FLOOR_US, target_vector(records))
    pred = model.predict(X)
    return EvalReport(
        n_records=len(records),
        mae_log=float(np.mean(np.abs(np.log(pred) - np.log(true)))),
        mape=float(np.mean(np.abs(pred - true) / true)),
        rank_correlation=spearman(pred, true),
    )
