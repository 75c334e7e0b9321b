"""``train``: interleaved full-batch GCN (slot a) and GAT (slot b) epochs.

Full-batch node classification on G2, the PubMed stand-in (19,717
vertices, about 108k edges with self-loops, Table-1 F=500), with a
2-layer GCN and a 2-layer GAT (hidden 16, gnnone backend, Adam).  After
epoch 0 every launch is a plan-cache hit, so epoch time goes to replay
numerics and ``repro.nn``: GCN epochs are dense-heavy (matmul forward and
backward), GAT epochs sparse-heavy (SDDMM numerics, ``u_add_v``, edge
softmax).  A dense or a sparse optimisation thus has one slot that shows
it and one that should not move.  The seed sets features, labels and
initial weights.
"""

from __future__ import annotations

import math

from repro.core import clear_plan_cache
from repro.nn import GAT, GCN, GraphData, Trainer, synthesize
from repro.sparse.datasets import load_dataset

from e2ebench import stats
from e2ebench.runner import Outcome

DATASET = "G2"
FEATURES = 500
HIDDEN = 16
#: test accuracy each model must reach (3 classes: chance is about 0.33)
ACCURACY_FLOOR = 0.7
#: epochs replayed from a fresh set-up to check the loss sequence repeats
REPLAY_EPOCHS = 3


class Train:
    setups = 3
    loaded_share = 0.0

    def __init__(self, seed: int, outcome: Outcome):
        self.seed = seed
        self.outcome = outcome
        self.first_losses: tuple[float, float] | None = None

    def _build(self) -> dict[str, Trainer]:
        dataset = load_dataset(DATASET)
        graph = GraphData(dataset.coo)  # fresh self-loop topology: lazy memos rebuild
        data = synthesize(dataset, feature_length=FEATURES, seed=self.seed)
        graph.warm(data.features)
        classes = data.num_classes
        return {
            "a": Trainer(GCN(FEATURES, HIDDEN, classes, seed=self.seed), graph, data),
            "b": Trainer(
                GAT(FEATURES, HIDDEN, classes, num_layers=2, seed=self.seed), graph, data
            ),
        }

    def setup(self) -> None:
        """Graph, features, both models, and the first (cold) epoch of each."""
        clear_plan_cache()
        self.trainers = self._build()
        self.history = {k: [t.train_epoch(0)] for k, t in self.trainers.items()}
        self.sim_us = {k: h[0].sim_us for k, h in self.history.items()}
        losses = (self.history["a"][0].loss, self.history["b"][0].loss)
        if self.first_losses is not None:
            self.outcome.check(losses == self.first_losses,
                               f"epoch-0 losses differ across set-ups: {losses}")
        self.first_losses = losses

    def op(self, slot: str, probe) -> None:
        history = self.history[slot]
        with probe.op(slot):
            record = self.trainers[slot].train_epoch(len(history))
        history.append(record)
        self.outcome.check(
            math.isfinite(record.loss) and record.sim_us == self.sim_us[slot],
            f"{slot} epoch {record.epoch}: loss {record.loss}, sim {record.sim_us} "
            f"!= {self.sim_us[slot]}",
        )

    def finish(self) -> None:
        check = self.outcome.check
        for k, history in self.history.items():
            check(history[-1].loss < history[0].loss,
                  f"{k}: loss did not fall ({history[0].loss} -> {history[-1].loss})")
            acc = self.trainers[k].evaluate("test")
            check(acc >= ACCURACY_FLOOR, f"{k}: test accuracy {acc} < {ACCURACY_FLOOR}")
        replay = self._build()
        for k, trainer in replay.items():
            recorded = [r.loss for r in self.history[k][:REPLAY_EPOCHS]]
            losses = [trainer.train_epoch(e).loss for e in range(len(recorded))]
            check(losses == recorded, f"{k}: replayed losses {losses} != {recorded}")

    def end_to_end(self, probe) -> dict[str, float]:
        a, b = probe.ops["a"], probe.ops["b"]
        return {
            "a_p50_ms": stats.median(a) * 1e3,
            "b_p50_ms": stats.median(b) * 1e3,
            "a_sim_us": self.sim_us["a"],
            "b_sim_us": self.sim_us["b"],
            # median over the interleaved (GCN, GAT) pairs: one slow epoch
            # moves a mean rate, not this
            "ops_per_s": stats.median([2 / (ta + tb) for ta, tb in zip(a, b)]),
        }

    def layer_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass
