"""Training checkpoints: epoch-level save/resume and in-memory rollback.

Two consumers, one state capture:

* the :class:`~repro.nn.trainer.Trainer` snapshots (in memory) at the
  top of every epoch so its NaN/Inf loss guard can roll back to the
  last good state and replay the epoch deterministically;
* :class:`CheckpointManager` persists the same state to disk
  (``epoch_NNNN.npz`` + ``meta.json`` per checkpoint directory) so an
  interrupted run resumes exactly where it stopped, reproducing the
  uninterrupted loss trajectory bit-for-bit.

State capture is exact: parameter and optimizer-moment arrays are
stored as raw float64 (``np.savez``), never rounded through text, so a
restored run's numerics are indistinguishable from an uninterrupted
one — the property the resilience test suite pins.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.errors import ResilienceError


def _optimizer_arrays(optimizer) -> dict[str, list[np.ndarray]]:
    """Adam's per-parameter moment arrays, by slot name."""
    return {name: getattr(optimizer, name) for name in ("_m", "_v")}


def _module_rngs(model) -> list[np.random.Generator]:
    """Every stateful generator in the model, in traversal order.

    Dropout layers consume RNG draws each training epoch; replaying an
    epoch without restoring these would sample different masks and
    silently break bit-identity with the uninterrupted run.
    """
    rngs = []
    for module in model.modules():
        rng = getattr(module, "_rng", None)
        if isinstance(rng, np.random.Generator):
            rngs.append(rng)
    return rngs


@dataclass
class TrainSnapshot:
    """Exact copy of model + optimizer state at one epoch boundary."""

    epoch: int
    params: list[np.ndarray]
    opt_slots: dict[str, list[np.ndarray]] = field(default_factory=dict)
    opt_step: int = 0
    rng_states: list[dict] = field(default_factory=list)

    @classmethod
    def capture(cls, epoch: int, model, optimizer) -> "TrainSnapshot":
        return cls(
            epoch=epoch,
            params=[p.data.copy() for p in model.parameters()],
            opt_slots={
                name: [a.copy() for a in arrays]
                for name, arrays in _optimizer_arrays(optimizer).items()
            },
            opt_step=optimizer.t,
            rng_states=[rng.bit_generator.state for rng in _module_rngs(model)],
        )

    def restore(self, model, optimizer) -> None:
        params = list(model.parameters())
        if len(params) != len(self.params):
            raise ResilienceError(
                f"checkpoint has {len(self.params)} parameters, "
                f"model has {len(params)}"
            )
        for p, saved in zip(params, self.params):
            if p.data.shape != saved.shape:
                raise ResilienceError(
                    f"checkpoint parameter shape {saved.shape} does not match "
                    f"model parameter shape {p.data.shape}"
                )
            p.data[...] = saved
        live = _optimizer_arrays(optimizer)
        for name, arrays in self.opt_slots.items():
            for dst, src in zip(live.get(name, ()), arrays):
                dst[...] = src
        optimizer.t = self.opt_step
        rngs = _module_rngs(model)
        if self.rng_states and len(rngs) != len(self.rng_states):
            raise ResilienceError(
                f"checkpoint has {len(self.rng_states)} RNG states, "
                f"model has {len(rngs)} stateful generators"
            )
        for rng, state in zip(rngs, self.rng_states):
            rng.bit_generator.state = state


class CheckpointManager:
    """Numbered on-disk checkpoints under one directory."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _npz_path(self, epoch: int) -> Path:
        return self.directory / f"epoch_{epoch:04d}.npz"

    def _meta_path(self, epoch: int) -> Path:
        return self.directory / f"epoch_{epoch:04d}.json"

    def epochs(self) -> list[int]:
        """Completed checkpoint epochs, ascending."""
        found = []
        for path in self.directory.glob("epoch_*.npz"):
            stem = path.stem.removeprefix("epoch_")
            if stem.isdigit() and self._meta_path(int(stem)).exists():
                found.append(int(stem))
        return sorted(found)

    def save(
        self,
        snapshot: TrainSnapshot,
        history: list[dict[str, Any]],
    ) -> Path:
        """Persist one epoch's state; the meta file lands last so a
        checkpoint is only ever *visible* once fully written."""
        arrays: dict[str, np.ndarray] = {}
        for i, p in enumerate(snapshot.params):
            arrays[f"param_{i}"] = p
        for name, slot in snapshot.opt_slots.items():
            for i, a in enumerate(slot):
                arrays[f"opt{name}_{i}"] = a
        path = self._npz_path(snapshot.epoch)
        np.savez(path, **arrays)
        meta = {
            "epoch": snapshot.epoch,
            "opt_step": snapshot.opt_step,
            "num_params": len(snapshot.params),
            "opt_slots": {n: len(s) for n, s in snapshot.opt_slots.items()},
            # bit-generator states are ints (arbitrary precision), which
            # JSON round-trips exactly — no float involved.
            "rng_states": snapshot.rng_states,
            "history": history,
        }
        self._meta_path(snapshot.epoch).write_text(json.dumps(meta, indent=1))
        obs.event("resilience.checkpoint_save", epoch=snapshot.epoch,
                  path=str(path))
        return path

    def load(self, epoch: int) -> tuple[TrainSnapshot, list[dict[str, Any]]]:
        meta_path = self._meta_path(epoch)
        npz_path = self._npz_path(epoch)
        if not meta_path.exists() or not npz_path.exists():
            raise ResilienceError(f"no checkpoint for epoch {epoch} in {self.directory}")
        # Corruption (a torn npz that still got its meta written, a
        # truncated meta, a missing array) surfaces as one typed error
        # so resume logic can fall back instead of crashing untyped.
        try:
            meta = json.loads(meta_path.read_text())
            with np.load(npz_path) as data:
                params = [data[f"param_{i}"] for i in range(meta["num_params"])]
                slots = {
                    name: [data[f"opt{name}_{i}"] for i in range(count)]
                    for name, count in meta.get("opt_slots", {}).items()
                }
        except ResilienceError:
            raise
        except Exception as e:
            raise ResilienceError(
                f"checkpoint for epoch {epoch} in {self.directory} is "
                f"corrupt: {type(e).__name__}: {e}"
            ) from e
        snapshot = TrainSnapshot(
            epoch=int(meta["epoch"]),
            params=params,
            opt_slots=slots,
            opt_step=int(meta.get("opt_step", 0)),
            rng_states=list(meta.get("rng_states", [])),
        )
        return snapshot, list(meta.get("history", []))

    def load_latest(self) -> tuple[TrainSnapshot, list[dict[str, Any]]] | None:
        """The newest *loadable* checkpoint, or ``None``.

        The meta-written-last invariant makes a cleanly interrupted save
        invisible, but a torn ``.npz`` under an already-written meta (or
        bit rot in either file) can still happen; resume walks backward
        past corrupt checkpoints — warning and counting each — rather
        than refusing to resume a run that has older good state.
        """
        for epoch in reversed(self.epochs()):
            try:
                return self.load(epoch)
            except ResilienceError as e:
                obs.event("resilience.checkpoint_corrupt", epoch=epoch,
                          error=str(e))
                print(
                    f"warning: skipping corrupt checkpoint epoch {epoch} "
                    f"in {self.directory}: {e}",
                    file=sys.stderr,
                )
        return None
