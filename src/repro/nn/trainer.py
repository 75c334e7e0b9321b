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

import dataclasses
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import obs
from repro.errors import TrainingDivergedError
from repro.gpusim.device import DeviceSpec, get_device
from repro.nn import functional as F
from repro.nn.clock import SimClock, simulate
from repro.nn.data import NodeClassificationData
from repro.nn.graph import GraphData
from repro.nn.modules import Module
from repro.nn.optim import Adam, Optimizer
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

    def total_sim_us(self, epochs: int) -> float:
        """Projected end-to-end simulated time for ``epochs`` epochs."""
        return self.epoch_sim_us * epochs

    @property
    def final_val_acc(self) -> float:
        return self.history[-1].val_acc if self.history else 0.0


class Trainer:
    """Full-graph node-classification training."""

    def __init__(
        self,
        model: Module,
        graph: GraphData,
        data: NodeClassificationData,
        *,
        optimizer: Optimizer | None = None,
        lr: float = 0.01,
        device: DeviceSpec | str | None = None,
        autotune: bool | str = False,
    ):
        self.model = model
        self.graph = graph
        self.data = data
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr)
        self.device = get_device(device)
        if autotune:
            self._autotune_backend(None if autotune is True else str(autotune))
        fused = getattr(getattr(model, "backend", None), "fused_elementwise", False)
        self.clock = SimClock(device=self.device, fused_elementwise=fused)

    def _autotune_backend(self, strategy: str | None) -> None:
        """Pin tuned GNNOne configs on the model's backend.

        Tunes at the input feature length (the widest tensors the
        sparse ops see each epoch); ``strategy=None`` defers to
        ``REPRO_TUNE`` so a deployment flips exact vs learned search
        with one env var.  Memoized by the tune cache, so repeated
        Trainer construction over one graph costs one search.
        """
        backend = getattr(self.model, "backend", None)
        if backend is None:
            return
        from repro.core.autotune import autotune as _tune

        f_rep = self.data.feature_length
        updates = {}
        if backend.spmm == "gnnone":
            updates["gnnone_spmm_config"] = _tune(
                self.graph.coo, f_rep, "spmm",
                device=self.device, strategy=strategy,
            ).config
        if backend.sddmm == "gnnone":
            updates["gnnone_sddmm_config"] = _tune(
                self.graph.coo, f_rep, "sddmm",
                device=self.device, strategy=strategy,
            ).config
        if updates:
            self.model.backend = dataclasses.replace(backend, **updates)

    def train_epoch(self, epoch: int) -> EpochRecord:
        self.model.train()
        self.clock.reset()
        t0 = time.perf_counter()
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
        metrics = obs.get_metrics()
        metrics.histogram("train.epoch_sim_us").observe(self.clock.total_us)
        # Wall vs simulated: the regress gate reads only sim
        # (deterministic); wall time is a metric for humans.
        metrics.histogram("train.epoch_wall_ms").observe((time.perf_counter() - t0) * 1e3)
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
        obs.get_metrics().counter("resilience.checkpoint_restore").inc()
        obs.event("resilience.checkpoint_restore", epoch=snapshot.epoch,
                  reason="resume", directory=str(manager.directory))
        return snapshot.epoch + 1

    def fit(
        self,
        epochs: int,
        *,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        nan_guard: bool = True,
    ) -> TrainResult:
        """Train for ``epochs`` epochs (possibly resuming mid-run).

        With ``checkpoint_dir``, model + optimizer state land on disk
        every ``checkpoint_every`` epochs and ``resume=True`` continues
        from the latest checkpoint, reproducing the uninterrupted loss
        trajectory exactly.  ``nan_guard`` (on by default) rolls back to
        the last good state and replays the epoch when a loss comes out
        NaN/Inf, raising :class:`TrainingDivergedError` once the replay
        budget (``MAX_ROLLBACKS``) is spent.
        """
        result = TrainResult()
        manager = CheckpointManager(checkpoint_dir) if checkpoint_dir else None
        injector = get_injector()
        backend = getattr(getattr(self.model, "backend", None), "name", None)
        with obs.span("train.fit", model=type(self.model).__name__,
                      backend=backend, epochs=epochs, device=self.device.name) as sp:
            # Pre-build the memoized graph structures (CSR views,
            # transpose, tokens) so epoch 1 measures kernel work, not
            # lazy one-time preprocessing; the validation boundary runs
            # here (topology contract + finite input features).
            with obs.span("train.warm", vertices=self.graph.num_vertices,
                          edges=self.graph.num_edges):
                self.graph.warm(self.data.features)
            start_epoch = 0
            if resume and manager is not None:
                start_epoch = self._restore_checkpoint(manager, result)
            epoch = start_epoch
            rollbacks = 0
            while epoch < epochs:
                snapshot = (
                    TrainSnapshot.capture(epoch, self.model, self.optimizer)
                    if nan_guard
                    else None
                )
                record = self.train_epoch(epoch)
                if injector.enabled and injector.fire("train.loss_corrupt",
                                                      epoch=epoch):
                    record.loss = float("nan")
                if nan_guard and not math.isfinite(record.loss):
                    rollbacks += 1
                    if rollbacks > MAX_ROLLBACKS:
                        raise TrainingDivergedError(
                            f"loss stayed non-finite at epoch {epoch} after "
                            f"{MAX_ROLLBACKS} rollback(s)"
                        )
                    snapshot.restore(self.model, self.optimizer)
                    obs.get_metrics().counter("resilience.checkpoint_restore").inc()
                    obs.event("resilience.checkpoint_restore", epoch=epoch,
                              reason="nan-loss-rollback", attempt=rollbacks)
                    continue  # replay the epoch from the restored state
                rollbacks = 0
                result.history.append(record)
                if manager is not None and (
                    epoch % max(1, checkpoint_every) == 0 or epoch == epochs - 1
                ):
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
