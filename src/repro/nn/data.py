"""Labeled training data for the Table-1 stand-ins.

The paper's GNNBench platform generates labels and features for the
unlabeled datasets (Section 5.3).  We do the same, but make them
*learnable*: class assignments are smoothed over the real graph with a
few rounds of majority-vote propagation (so labels respect graph
structure — what a GNN can exploit) and features are a noisy projection
of the class signal.  Accuracy is then meaningfully above chance and —
the actual Fig-5 claim — identical between GNNOne and DGL backends,
since their kernels are numerically equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sparse.coo import COOMatrix
from repro.sparse.datasets import LoadedDataset
from repro.utils.rng import default_rng


@dataclass
class NodeClassificationData:
    features: np.ndarray  # (V, F)
    labels: np.ndarray  # (V,)
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int

    @property
    def feature_length(self) -> int:
        return int(self.features.shape[1])


#: majority-vote propagation rounds that smooth the random labels
SMOOTHING_ROUNDS = 3


def smooth_labels(coo: COOMatrix, num_classes: int, seed: int = 0) -> np.ndarray:
    """Random labels smoothed by majority-vote propagation over ``coo``."""
    if num_classes < 2:
        raise ConfigError("need at least 2 classes")
    rng = default_rng(seed)
    labels = rng.integers(0, num_classes, size=coo.num_rows)
    for _ in range(SMOOTHING_ROUNDS):
        votes = np.zeros((coo.num_rows, num_classes))
        np.add.at(votes, coo.rows, np.eye(num_classes)[labels[coo.cols]])
        # Keep own vote with weight 1 to stabilize isolated vertices.
        votes[np.arange(coo.num_rows), labels] += 1.0
        labels = votes.argmax(axis=1)
    return labels.astype(np.int64)


def synthesize(
    dataset: LoadedDataset,
    *,
    feature_length: int | None = None,
    seed: int = 0,
) -> NodeClassificationData:
    """Generate features/labels/masks for a loaded dataset.

    ``feature_length`` defaults to a scaled-down version of the paper's
    Table-1 "F" (capped at 64 so laptop-scale training stays fast).
    Vertices split 60/20/20 into train/val/test.
    """
    spec = dataset.spec
    coo = dataset.coo
    F = feature_length if feature_length is not None else min(spec.feature_length, 64)
    C = spec.num_classes
    rng = default_rng(seed)
    labels = smooth_labels(coo, C, seed=seed)
    # Features: class centroid + unit Gaussian noise, projected to F dims.
    centroids = rng.standard_normal((C, F))
    features = centroids[labels] + rng.standard_normal((coo.num_rows, F))

    perm = rng.permutation(coo.num_rows)
    n_train = int(0.6 * coo.num_rows)
    n_val = int(0.2 * coo.num_rows)
    train_mask = np.zeros(coo.num_rows, dtype=bool)
    val_mask = np.zeros(coo.num_rows, dtype=bool)
    test_mask = np.zeros(coo.num_rows, dtype=bool)
    train_mask[perm[:n_train]] = True
    val_mask[perm[n_train : n_train + n_val]] = True
    test_mask[perm[n_train + n_val :]] = True
    return NodeClassificationData(
        features=features,
        labels=labels,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        num_classes=C,
    )
