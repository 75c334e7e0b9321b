"""The seed sets each workload's inputs: same seed, same inputs; new seed, new."""

import os

import numpy as np

from e2ebench.runner import Outcome


def test_sweep_operands_follow_the_seed():
    from repro.bench.harness import sweep_operands
    from e2ebench.sweep import DATASETS, FEATURES

    key = DATASETS[0]
    a = sweep_operands(key, FEATURES, 1)
    assert all(np.array_equal(x, y) for x, y in zip(a[1:], sweep_operands(key, FEATURES, 1)[1:]))
    b = sweep_operands(key, FEATURES, 2)
    assert all(not np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))


def test_train_features_labels_and_weights_follow_the_seed():
    from e2ebench.train import Train

    def build(seed):
        trainers = Train(seed, Outcome())._build()
        gcn = trainers["a"]
        return gcn.data.features, gcn.data.labels, gcn.model.layers[0].linear.weight.data

    one, again, two = build(1), build(1), build(2)
    assert all(np.array_equal(x, y) for x, y in zip(one, again))
    assert all(not np.array_equal(x, y) for x, y in zip(one, two))


def test_serve_request_pools_follow_the_seed():
    from e2ebench.serve import Serve

    def pools(seed):
        cpus = os.sched_getaffinity(0)
        work = Serve(seed, Outcome())  # pins the process to one CPU
        try:
            return work.columns[0], work.id_sets[0], work.features, work.column_refs[0]
        finally:
            work.close()
            os.sched_setaffinity(0, cpus)

    one, again, two = pools(1), pools(1), pools(2)
    assert all(np.array_equal(x, y) for x, y in zip(one, again))
    assert all(not np.array_equal(x, y) for x, y in zip(one, two))
