"""Training loops: SPOS supernet training and stand-alone training.

Phase 2 of the framework (paper Sec. 3.3): within each iteration a
candidate sub-network is uniformly sampled by randomly selecting a
dropout design in every specified slot; gradients update the *shared*
weights.  Training and search are thereby decoupled — the supernet is
trained once and every candidate can afterwards be evaluated directly
with shared weights.

Both loops run on the training fast path: fused in-place optimizer
updates (:func:`_build_optimizer`) inside the per-layer buffer-reusing
training workspace (:func:`repro.nn.fastpath.fast_training`), so
steady-state steps allocate nothing activation-sized.  The
allocation-heavy reference trajectory — unfused optimizers, no
workspace — survives only as a test oracle; the fast path is pinned
bit-identical to it (same ``epoch_losses``, same step count, same
final weight bytes on seeded runs) by ``tests/test_train_fastpath.py``.

Training is resumable at epoch granularity: pass a *checkpointer* (any
object with ``load() -> Optional[TrainCheckpoint]`` and
``save(TrainCheckpoint)``) and every completed epoch persists the model
weights, optimizer moments, RNG state and loss history.  A re-invoked
run restores that state and continues with the exact random stream of
an uninterrupted run, so an interrupted Phase-2 run re-pays zero
completed epochs and still reproduces the uninterrupted trajectory
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro import nn
from repro.data.dataset import DataLoader, Dataset
from repro.dropout.base import DropoutLayer
from repro.nn.fastpath import fast_training
from repro.nn.module import Module
from repro.search.supernet import Supernet
from repro.utils.rng import SeedLike, child_rng, new_rng
from repro.utils.timers import Timer
from repro.utils.validation import check_known_fields, check_positive_int


@dataclass
class TrainLog:
    """Record of one training run.

    Attributes:
        epoch_losses: mean loss per epoch.
        wall_seconds: total wall-clock training time.
        steps: optimizer steps taken.
    """

    epoch_losses: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    steps: int = 0

    def to_dict(self) -> dict:
        """JSON-ready view that round-trips via :meth:`from_dict`."""
        return {
            "epoch_losses": [float(x) for x in self.epoch_losses],
            "wall_seconds": float(self.wall_seconds),
            "steps": int(self.steps),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainLog":
        """Rebuild a log serialized with :meth:`to_dict`."""
        check_known_fields(data, cls, "TrainLog")
        return cls(
            epoch_losses=[float(x) for x in data.get("epoch_losses", [])],
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            steps=int(data.get("steps", 0)),
        )


@dataclass
class TrainConfig:
    """Hyper-parameters shared by both trainers."""

    epochs: int = 8
    batch_size: int = 32
    lr: float = 2e-3
    weight_decay: float = 0.0
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_size, "batch_size")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(
                f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")


@dataclass
class TrainCheckpoint:
    """Epoch-granular snapshot of an in-progress training run.

    Captures everything needed to continue the run exactly where it
    stopped: the trained weights, the optimizer moments (index-keyed,
    see :meth:`repro.nn.optim.Optimizer.state_dict`), the root RNG
    state (which drives both batch shuffling and SPOS path sampling),
    the per-layer dropout mask-stream state (``stochastic_state``; a
    supernet's whole choice bank, see
    :meth:`repro.search.supernet.Supernet.stochastic_state`) and the
    loss history so far.
    """

    epochs_done: int
    epoch_losses: List[float]
    steps: int
    wall_seconds: float
    rng_state: Dict[str, Any]
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, np.ndarray]
    stochastic_state: Any = None


class MemoryCheckpointer:
    """In-memory checkpointer: the reference checkpoint sink.

    Used by tests and as the minimal example of the checkpointer
    protocol (``load``/``save``).  Durable storage is provided by the
    artifact-store checkpointer in :mod:`repro.api.stages`.
    """

    def __init__(self) -> None:
        self.checkpoint: Optional[TrainCheckpoint] = None
        self.saves = 0

    def load(self) -> Optional[TrainCheckpoint]:
        return self.checkpoint

    def save(self, checkpoint: TrainCheckpoint) -> None:
        self.checkpoint = checkpoint
        self.saves += 1


def _build_optimizer(model: Module, cfg: TrainConfig) -> nn.optim.Optimizer:
    if cfg.optimizer == "adam":
        return nn.Adam(model.parameters(), lr=cfg.lr,
                       weight_decay=cfg.weight_decay, fused=True)
    return nn.SGD(model.parameters(), lr=cfg.lr, momentum=0.9,
                  weight_decay=cfg.weight_decay, fused=True)


def _capture_stochastic(model: Module) -> Any:
    """Mask-stream state of every dropout design reachable from ``model``.

    A :class:`~repro.search.supernet.Supernet` exposes its whole choice
    bank; plain models fall back to the active
    :class:`~repro.dropout.base.DropoutLayer` instances discovered by
    the module walk (attribute order, hence deterministic).
    """
    if hasattr(model, "stochastic_state"):
        return {"kind": "model", "state": model.stochastic_state()}
    return {"kind": "layers",
            "state": [m.stochastic_state() for m in model.modules()
                      if isinstance(m, DropoutLayer)]}


def _restore_stochastic(model: Module, snapshot: Any) -> None:
    if snapshot is None:
        return
    if snapshot["kind"] == "model":
        model.load_stochastic_state(snapshot["state"])
        return
    layers = [m for m in model.modules() if isinstance(m, DropoutLayer)]
    states = snapshot["state"]
    if len(layers) != len(states):
        raise ValueError(
            f"checkpoint has {len(states)} dropout-layer states, "
            f"model has {len(layers)} dropout layers")
    for layer, state in zip(layers, states):
        layer.load_stochastic_state(state)


def _snapshot(model: Module, optimizer: nn.optim.Optimizer,
              root: np.random.Generator, log: TrainLog,
              epochs_done: int, base_wall: float,
              timer: Timer) -> TrainCheckpoint:
    return TrainCheckpoint(
        epochs_done=epochs_done,
        epoch_losses=[float(x) for x in log.epoch_losses],
        steps=int(log.steps),
        wall_seconds=base_wall + timer.elapsed,
        rng_state=root.bit_generator.state,
        model_state=model.state_dict(),
        optimizer_state=optimizer.state_dict(),
        stochastic_state=_capture_stochastic(model),
    )


def _restore(checkpoint: TrainCheckpoint, model: Module,
             optimizer: nn.optim.Optimizer, root: np.random.Generator,
             log: TrainLog) -> None:
    model.load_state_dict(checkpoint.model_state)
    optimizer.load_state_dict(checkpoint.optimizer_state)
    _restore_stochastic(model, checkpoint.stochastic_state)
    root.bit_generator.state = checkpoint.rng_state
    log.epoch_losses = [float(x) for x in checkpoint.epoch_losses]
    log.steps = int(checkpoint.steps)


def _train_loop(model: Module, train_data: Dataset, cfg: TrainConfig,
                rng: SeedLike, checkpoint, step_fn) -> TrainLog:
    """The shared epoch/step loop of both trainers.

    ``step_fn(model, images, labels, criterion, optimizer) -> float``
    runs one optimizer step and returns the loss (the supernet variant
    samples a path first).
    """
    root = new_rng(rng)
    criterion = nn.CrossEntropyLoss()
    optimizer = _build_optimizer(model, cfg)
    log = TrainLog()
    start_epoch = 0
    base_wall = 0.0
    if checkpoint is not None:
        state = checkpoint.load()
        if state is not None and 0 < state.epochs_done <= cfg.epochs:
            _restore(state, model, optimizer, root, log)
            start_epoch = state.epochs_done
            base_wall = float(state.wall_seconds)
    model.train()
    with Timer() as timer:
        with fast_training():
            for epoch in range(start_epoch, cfg.epochs):
                loader = DataLoader(train_data, cfg.batch_size,
                                    rng=child_rng(root))
                losses = []
                for images, labels in loader:
                    losses.append(
                        step_fn(model, images, labels, criterion, optimizer,
                                root))
                    log.steps += 1
                log.epoch_losses.append(float(np.mean(losses)))
                if checkpoint is not None:
                    checkpoint.save(_snapshot(model, optimizer, root, log,
                                              epoch + 1, base_wall, timer))
    log.wall_seconds = base_wall + timer.elapsed
    return log


def _supernet_step(model, images, labels, criterion, optimizer, root):
    model.sample_config(root)
    loss = criterion(model(images), labels)
    optimizer.zero_grad()
    model.backward(criterion.backward())
    optimizer.step()
    return loss


def _standalone_step(model, images, labels, criterion, optimizer, root):
    loss = criterion(model(images), labels)
    optimizer.zero_grad()
    model.backward(criterion.backward())
    optimizer.step()
    return loss


def train_supernet(supernet: Supernet, train_data: Dataset,
                   config: Optional[TrainConfig] = None, *,
                   rng: SeedLike = None, checkpoint=None) -> TrainLog:
    """Train a supernet with single-path one-shot uniform sampling.

    Every optimizer step first activates a uniformly sampled dropout
    configuration, then performs a standard forward/backward/update on
    the shared weights.

    Args:
        supernet: the weight-sharing supernet to train.
        train_data: training split.
        config: training hyper-parameters (defaults are CI-scale).
        rng: seed; controls both batching and path sampling.
        checkpoint: optional checkpointer (``load``/``save``); every
            completed epoch is persisted and a prior partial run is
            resumed bit-exactly (see the module docstring).

    Returns:
        A :class:`TrainLog` with per-epoch losses and wall time.
    """
    return _train_loop(supernet, train_data, config or TrainConfig(), rng,
                       checkpoint, _supernet_step)


def train_standalone(model: Module, train_data: Dataset,
                     config: Optional[TrainConfig] = None, *,
                     rng: SeedLike = None, checkpoint=None) -> TrainLog:
    """Train a fixed model (no path sampling).

    Used for the uniform-dropout baselines trained from scratch and for
    the SPOS-fidelity ablation (bench A1).
    """
    return _train_loop(model, train_data, config or TrainConfig(), rng,
                       checkpoint, _standalone_step)
