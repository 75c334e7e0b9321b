"""repro.tune: learned cost model + input-aware autotuning.

The learning layer over the simulated-GPU stack:

* :mod:`repro.tune.features` — versioned featurizer from the graph
  census + kernel config + F + :class:`~repro.gpusim.device.DeviceSpec`
  to model inputs, shared by the offline (JSONL record) and online
  (live candidate) paths;
* :mod:`repro.tune.model` — dependency-light ridge regression on
  :mod:`repro.obs.dataset` records, with byte-deterministic persisted
  artifacts;
* :mod:`repro.tune.search` — model-pruned autotuning (rank all
  candidates, simulate only the top-k) with a measurable regret
  contract vs exhaustive :func:`repro.core.autotune.autotune`.

CLI: ``python -m repro.tune {train,predict,search}``.
Opt-in wiring: ``core.autotune(strategy="learned")`` or
``REPRO_TUNE=learned`` (+ ``REPRO_TUNE_MODEL=<artifact>``).
"""

from repro.tune.features import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    feature_matrix,
    featurize_launch,
    featurize_record,
    parse_config_knobs,
    target_vector,
)
from repro.tune.model import (
    ARTIFACT_VERSION,
    CostModel,
    EvalReport,
    evaluate_model,
    load_model,
    spearman,
    train_model,
)
from repro.tune.search import (
    DEFAULT_TOP_K,
    RegretReport,
    SearchResult,
    learned_autotune,
    measure_regret,
    rank_candidates,
)

__all__ = [
    "ARTIFACT_VERSION",
    "CostModel",
    "DEFAULT_TOP_K",
    "EvalReport",
    "FEATURE_NAMES",
    "FEATURE_VERSION",
    "RegretReport",
    "SearchResult",
    "evaluate_model",
    "feature_matrix",
    "featurize_launch",
    "featurize_record",
    "learned_autotune",
    "load_model",
    "measure_regret",
    "parse_config_knobs",
    "rank_candidates",
    "spearman",
    "target_vector",
    "train_model",
]
