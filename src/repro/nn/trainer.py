"""Training harness: real accuracy + simulated GPU time per epoch.

Runs the actual NumPy training loop (so Fig-5 accuracies are real) while
every kernel charges its simulated time to a :class:`SimClock`; since
the simulated time of an epoch is deterministic, end-to-end "200 epoch"
times (Figs 6-7) are ``epochs * mean(epoch_us)`` without running all
200 numerically.

Resilience (:mod:`repro.resilience`): ``fit`` can checkpoint every
epoch to a directory and resume from the latest checkpoint, and a
NaN/Inf loss guard rolls the model/optimizer back to the last good
state and replays the epoch (training is deterministic, so a replay
after a transient corruption reproduces the uninterrupted trajectory
bit-for-bit); a loss that stays non-finite after the bounded rollback
budget raises :class:`~repro.errors.TrainingDivergedError`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigError, TrainingDivergedError
from repro.nn import functional as F
from repro.nn.clock import SimClock, simulate
from repro.nn.data import NodeClassificationData
from repro.nn.graph import GraphData
from repro.nn.modules import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.resilience.checkpoint import CheckpointManager, TrainSnapshot
from repro.resilience.faults import get_injector

#: epoch replays the NaN/Inf loss guard may spend before giving up
MAX_ROLLBACKS = 2


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    train_acc: float
    val_acc: float
    sim_us: float


@dataclass
class TrainResult:
    history: list[EpochRecord] = field(default_factory=list)
    test_acc: float = 0.0
    #: simulated microseconds of one (steady-state) training epoch
    epoch_sim_us: float = 0.0
    #: simulated time buckets of the measured epoch
    buckets: dict[str, float] = field(default_factory=dict)


class Trainer:
    """Full-graph node-classification training."""

    def __init__(
        self,
        model: Module,
        graph: GraphData,
        data: NodeClassificationData,
        *,
        lr: float = 0.01,
    ):
        self.model = model
        self.graph = graph
        self.data = data
        self.optimizer = Adam(model.parameters(), lr=lr)
        fused = getattr(getattr(model, "backend", None), "fused_elementwise", False)
        self.clock = SimClock(fused_elementwise=fused)

    def train_epoch(self, epoch: int) -> EpochRecord:
        self.model.train()
        self.clock.reset()
        with obs.span("train.epoch", epoch=epoch, model=type(self.model).__name__) as sp:
            with simulate(self.clock):
                x = Tensor(self.data.features)
                logits = self.model(self.graph, x)
                log_probs = F.log_softmax(logits)
                loss = F.nll_loss(log_probs, self.data.labels, self.data.train_mask)
                self.model.zero_grad()
                loss.backward()
                self.optimizer.step()
            train_acc = F.accuracy(logits.data, self.data.labels, self.data.train_mask)
            val_acc = self.evaluate("val")
            # Fold the epoch's SimClock buckets into the span so traces
            # carry the same breakdown TrainResult.buckets reports.
            sp.add_sim_us(self.clock.total_us)
            sp.set(loss=float(loss.data), train_acc=train_acc, val_acc=val_acc,
                   buckets=dict(self.clock.buckets))
        return EpochRecord(
            epoch=epoch,
            loss=float(loss.data),
            train_acc=train_acc,
            val_acc=val_acc,
            sim_us=self.clock.total_us,
        )

    def evaluate(self, split: str = "test") -> float:
        mask = {"train": self.data.train_mask, "val": self.data.val_mask,
                "test": self.data.test_mask}[split]
        self.model.eval()
        logits = self.model(self.graph, Tensor(self.data.features))
        self.model.train()
        return F.accuracy(logits.data, self.data.labels, mask)

    def _restore_checkpoint(
        self, manager: CheckpointManager, result: TrainResult
    ) -> int:
        """Resume from the latest checkpoint; returns the next epoch."""
        loaded = manager.load_latest()
        if loaded is None:
            return 0
        snapshot, history = loaded
        snapshot.restore(self.model, self.optimizer)
        result.history = [EpochRecord(**rec) for rec in history]
        obs.event("resilience.checkpoint_restore", epoch=snapshot.epoch,
                  reason="resume", directory=str(manager.directory))
        return snapshot.epoch + 1

    def fit(
        self,
        epochs: int,
        *,
        checkpoint_dir: str | None = None,
        resume: bool = False,
    ) -> TrainResult:
        """Train for ``epochs`` epochs (possibly resuming mid-run).

        With ``checkpoint_dir``, model + optimizer state land on disk
        after every epoch and ``resume=True`` continues from the latest
        checkpoint, reproducing the uninterrupted loss trajectory
        exactly; ``resume=True`` without a ``checkpoint_dir`` raises
        :class:`ConfigError`.  A loss that comes out NaN/Inf rolls back
        to the last good state and replays the epoch, raising
        :class:`TrainingDivergedError` once the replay budget
        (``MAX_ROLLBACKS``) is spent.
        """
        if resume and not checkpoint_dir:
            raise ConfigError("resume=True needs a checkpoint_dir to resume from")
        result = TrainResult()
        manager = CheckpointManager(checkpoint_dir) if checkpoint_dir else None
        injector = get_injector()
        backend = getattr(getattr(self.model, "backend", None), "name", None)
        with obs.span("train.fit", model=type(self.model).__name__,
                      backend=backend, epochs=epochs) as sp:
            # Pre-build the memoized graph structures (CSR views,
            # transpose, tokens) so epoch 1 measures kernel work, not
            # lazy one-time preprocessing; the validation boundary runs
            # here (topology contract + finite input features).
            with obs.span("train.warm", vertices=self.graph.num_vertices,
                          edges=self.graph.num_edges):
                self.graph.warm(self.data.features)
            epoch = self._restore_checkpoint(manager, result) if resume else 0
            rollbacks = 0
            while epoch < epochs:
                snapshot = TrainSnapshot.capture(epoch, self.model, self.optimizer)
                record = self.train_epoch(epoch)
                if injector.enabled and injector.fire("train.loss_corrupt",
                                                      epoch=epoch):
                    record.loss = float("nan")
                if not math.isfinite(record.loss):
                    rollbacks += 1
                    if rollbacks > MAX_ROLLBACKS:
                        raise TrainingDivergedError(
                            f"loss stayed non-finite at epoch {epoch} after "
                            f"{MAX_ROLLBACKS} rollback(s)"
                        )
                    snapshot.restore(self.model, self.optimizer)
                    obs.event("resilience.checkpoint_restore", epoch=epoch,
                              reason="nan-loss-rollback", attempt=rollbacks)
                    continue  # replay the epoch from the restored state
                rollbacks = 0
                result.history.append(record)
                if manager is not None:
                    manager.save(
                        TrainSnapshot.capture(epoch, self.model, self.optimizer),
                        [asdict(r) for r in result.history],
                    )
                epoch += 1
            result.test_acc = self.evaluate("test")
            if result.history:
                # Steady-state epoch time (first epoch may include one-time
                # format preprocessing in the baselines).
                result.epoch_sim_us = float(np.median([r.sim_us for r in result.history]))
            result.buckets = dict(self.clock.buckets)
            sp.add_sim_us(result.epoch_sim_us * epochs)
            sp.set(test_acc=result.test_acc, epoch_sim_us=result.epoch_sim_us)
        return result
