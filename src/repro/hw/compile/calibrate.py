"""Activation-range calibration for the fixed-point compiler.

Quantization needs to know the dynamic range every activation tensor
actually takes under Monte-Carlo serving — including the inverted-
dropout mask scaling, which inflates post-dropout ranges by ``1/keep``.
This module reproduces the experiment's own validation split as the
calibration set (bit-exact: the same seed derivations Phase 1 uses) and
observes per-layer ranges by hooking the float model through one
MC-dropout prediction under the deployment's serving contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.dataset import split_dataset
from repro.data.synthetic import make_dataset
from repro.hw.netlist import hooked_leaves
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive_int

#: Default number of calibration rows (validation-split prefix).
DEFAULT_CALIBRATION_ROWS = 64

#: Default number of rows the fidelity report is measured on.
DEFAULT_FIDELITY_ROWS = 256


@dataclass
class RangeRecord:
    """Observed activation range of one traced layer."""

    in_max: float = 0.0
    out_max: float = 0.0


def calibration_split(spec, *, rows: int = DEFAULT_CALIBRATION_ROWS
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Rebuild the experiment's validation split for calibration.

    Uses the exact Phase-1 derivations (dataset seed ``(spec.seed, 1)``,
    split seed ``(spec.seed, 2)``, channel normalization), so the rows a
    standalone ``repro compile`` calibrates on are byte-identical to the
    rows the producing run validated on — no training data needs to
    travel with the deployment.

    Returns:
        ``(images, labels)`` — the first ``rows`` validation rows.
    """
    check_positive_int(rows, "rows")
    dataset = make_dataset(spec.dataset, spec.dataset_size,
                           image_size=spec.image_size,
                           rng=derive_seed(spec.seed, 1)).normalized()
    splits = split_dataset(dataset, rng=derive_seed(spec.seed, 2))
    val = splits.val
    take = min(rows, len(val))
    return val.images[:take], val.labels[:take]


def observe_ranges(deployment, model, images: np.ndarray, *,
                   num_samples: Optional[int] = None
                   ) -> Dict[str, RangeRecord]:
    """Per-layer activation ranges under one calibrated MC prediction.

    Hooks every traced leaf of ``model`` (the backbone of a deployment's
    instantiated supernet), runs ``deployment.predict`` on ``images`` —
    the full serving contract: reseeded canonical mask plans and the
    spec's ``T`` — and records the running ``max |x|`` of each
    layer's inputs (both operands of an ``add``) and output.  The hooks observe only; the mask
    stream and the prediction itself are exactly what serving computes.

    Returns:
        Mapping from traced layer name to its :class:`RangeRecord`.
    """
    ranges: Dict[str, RangeRecord] = {}

    def make_hook(name: str, kind: str, module, original):
        record = ranges.setdefault(name, RangeRecord())

        def hook(*inputs: np.ndarray) -> np.ndarray:
            out = original(*inputs)
            for x in inputs:
                record.in_max = max(record.in_max,
                                    float(np.max(np.abs(x), initial=0.0)))
            record.out_max = max(record.out_max,
                                 float(np.max(np.abs(out), initial=0.0)))
            return out
        return hook

    with hooked_leaves(model.model, make_hook):
        deployment.predict(model, np.asarray(images),
                           num_samples=num_samples)
    return ranges


__all__ = [
    "DEFAULT_CALIBRATION_ROWS",
    "DEFAULT_FIDELITY_ROWS",
    "RangeRecord",
    "calibration_split",
    "observe_ranges",
]
