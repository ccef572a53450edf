"""Test oracles: the reference paths production code never selects.

Inference always runs the fused MC engine (:func:`repro.bayes.mc.
mc_predict`) and training always runs the fast path (fused optimizer
updates inside :func:`repro.nn.fastpath.fast_training`).  Their
textbook references stay in the library only to be compared against,
and suites reach them through this module:

* ``mc_predict_looped`` — the MC oracle itself, ``T`` sequential
  passes, for direct comparisons against ``mc_predict``;
* :func:`looped_mc` routes the candidate evaluator (through
  :mod:`repro.bayes.evaluate`) and the serving deployment
  (:meth:`repro.serve.Deployment.predict`) onto the looped oracle;
* :func:`reference_training` runs :mod:`repro.search.trainer` with
  unfused optimizer updates and no training workspace.

The patches are process-global, so worker processes forked inside the
block (evaluation pools, replica pools) inherit them.
:func:`mc_engine` and :func:`train_mode` map the path names onto the
contexts so suites can parametrize over production and oracle alike.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.bayes.mc import mc_predict_looped
from repro.search import trainer

#: MC inference paths: the production engine, then its oracle.
ENGINES = ("batched", "looped")

#: Training paths: the production fast path, then its oracle.
TRAIN_MODES = ("fast", "reference")

_build_fused_optimizer = trainer._build_optimizer


@contextlib.contextmanager
def looped_mc():
    """Serve evaluator and deployment MC calls from the looped oracle."""
    with mock.patch("repro.bayes.evaluate.mc_predict", mc_predict_looped), \
            mock.patch("repro.serve.deployment.mc_predict",
                       mc_predict_looped):
        yield


def _build_unfused_optimizer(model, cfg):
    optimizer = _build_fused_optimizer(model, cfg)
    optimizer.fused = False
    return optimizer


@contextlib.contextmanager
def reference_training():
    """Train on the reference path: unfused updates, no workspace."""
    with mock.patch.object(trainer, "fast_training",
                           contextlib.nullcontext), \
            mock.patch.object(trainer, "_build_optimizer",
                              _build_unfused_optimizer):
        yield


def mc_engine(name: str):
    """The context that runs MC inference on path ``name``."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")
    return looped_mc() if name == "looped" else contextlib.nullcontext()


def train_mode(name: str):
    """The context that runs training on path ``name``."""
    if name not in TRAIN_MODES:
        raise ValueError(
            f"unknown train mode {name!r}; choose from {TRAIN_MODES}")
    return (reference_training() if name == "reference"
            else contextlib.nullcontext())


__all__ = [
    "ENGINES",
    "TRAIN_MODES",
    "looped_mc",
    "mc_engine",
    "mc_predict_looped",
    "reference_training",
    "train_mode",
]
