"""Masksembles — static pre-generated masks (Durasov et al. [5]).

Granularity: point/channel.  Dynamics: **static** — the paper's Fig. 1
highlights that Masksembles masks are *generated offline* and stored on
the accelerator (BRAM), so no on-chip RNG or comparators are needed.

A fixed family of ``num_masks`` binary masks with controlled pairwise
overlap is generated once; Monte-Carlo sample ``t`` applies mask
``t % num_masks``.  The overlap is governed by the ``scale`` parameter
``s >= 1``: each mask activates ``m`` positions out of ``ceil(m * s)``
total, so larger ``s`` means sparser masks with less overlap (more
ensemble diversity) — the construction of the original Masksembles
paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dropout.base import (
    GRANULARITY_CHANNEL,
    GRANULARITY_POINT,
    DropoutLayer,
    HardwareTraits,
)
from repro.nn.module import DTYPE
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive_int


def generate_masks(num_features: int, num_masks: int, scale: float,
                   rng: SeedLike = None) -> np.ndarray:
    """Generate a Masksembles mask family.

    Implements the generation scheme of the Masksembles paper: each of
    the ``num_masks`` masks activates ``m`` positions chosen uniformly
    without replacement from ``ceil(m * scale)`` candidate positions;
    ``m`` grows until, after discarding positions no mask activates, at
    least ``num_features`` positions remain; columns are then trimmed to
    exactly ``num_features``.

    Args:
        num_features: number of features/channels the masks cover.
        num_masks: family size (one mask per Monte-Carlo sample slot).
        scale: overlap control ``s >= 1``; ``s = 1`` gives all-ones
            masks (no dropout), larger ``s`` gives sparser, more
            diverse masks.
        rng: seed or generator.

    Returns:
        Binary array of shape ``(num_masks, num_features)``; every mask
        has at least one active position and every returned feature is
        active in at least one mask.
    """
    num_features = check_positive_int(num_features, "num_features")
    num_masks = check_positive_int(num_masks, "num_masks")
    if scale < 1.0:
        raise ValueError(f"scale must be >= 1, got {scale}")
    rng = new_rng(rng)
    if scale == 1.0:
        return np.ones((num_masks, num_features), dtype=np.int8)

    m = max(1, int(round(num_features / scale)))
    for _ in range(10_000):
        total = int(np.ceil(m * scale))
        masks = np.zeros((num_masks, total), dtype=np.int8)
        for i in range(num_masks):
            idx = rng.choice(total, size=min(m, total), replace=False)
            masks[i, idx] = 1
        used = masks.any(axis=0)
        width = int(used.sum())
        if width >= num_features:
            masks = masks[:, used][:, :num_features]
            # Guarantee full coverage after trimming: any feature no mask
            # kept gets assigned round-robin.
            uncovered = np.flatnonzero(~masks.any(axis=0))
            for j, feat in enumerate(uncovered):
                masks[j % num_masks, feat] = 1
            # Guarantee every mask keeps at least one feature.
            for i in range(num_masks):
                if not masks[i].any():
                    masks[i, rng.integers(num_features)] = 1
            return masks
        m += 1
    raise RuntimeError(
        "mask generation failed to converge; scale/num_features "
        "combination is infeasible")  # pragma: no cover


def expected_keep_fraction(num_masks: int, scale: float) -> float:
    """Analytic keep fraction of the construction, ``m / width``.

    With ``total = m * s`` candidates, the expected covered width is
    ``total * (1 - (1 - 1/s)^K)`` for ``K`` masks, so each mask keeps a
    fraction ``1 / (s * (1 - (1 - 1/s)^K))`` of the returned features.
    """
    if scale == 1.0:
        return 1.0
    coverage = 1.0 - (1.0 - 1.0 / scale) ** num_masks
    return float(min(1.0, 1.0 / (scale * coverage)))


class Masksembles(DropoutLayer):
    """Static mask-family dropout applied per channel (conv) or feature (fc).

    Args:
        num_masks: mask-family size; MC sample ``t`` uses mask
            ``t % num_masks``.
        scale: overlap control (see :func:`generate_masks`).
        rng: seed for the one-time offline mask generation.
        mc_mode: see :class:`repro.dropout.base.DropoutLayer`.

    The drop probability ``p`` reported by the layer is derived from the
    analytic keep fraction of the construction.
    """

    code = "M"
    design_name = "masksembles"
    granularity = f"{GRANULARITY_POINT}/{GRANULARITY_CHANNEL}"
    dynamic = False
    supports_conv = True
    supports_fc = True

    def __init__(self, num_masks: int = 4, *, scale: float = 2.0,
                 rng: SeedLike = None, mc_mode: bool = True) -> None:
        p = 1.0 - expected_keep_fraction(num_masks, scale)
        # p sits in [0, 1) by construction; clamp defensively.
        super().__init__(min(max(p, 0.0), 0.999), rng=rng, mc_mode=mc_mode)
        self.num_masks = check_positive_int(num_masks, "num_masks")
        if scale < 1.0:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.scale = float(scale)
        self._masks: Optional[np.ndarray] = None
        self._num_features: Optional[int] = None

    def stochastic_state(self) -> dict:
        """Extend the base snapshot with the derived mask family.

        The family is generated lazily *from* the random stream, so a
        checkpoint taken after generation must carry the family itself:
        restoring only the post-generation stream into a fresh layer
        would regenerate the family from the wrong point of the stream.
        """
        state = super().stochastic_state()
        state["masks"] = (None if self._masks is None
                          else self._masks.tolist())
        state["num_features"] = self._num_features
        return state

    def load_stochastic_state(self, state: dict) -> None:
        super().load_stochastic_state(state)
        masks = state["masks"]
        self._masks = (None if masks is None
                       else np.asarray(masks, dtype=np.int8))
        self._num_features = (None if state["num_features"] is None
                              else int(state["num_features"]))

    def reseed(self, seed: SeedLike) -> None:
        """Reseed and drop the cached family so it regenerates.

        The family is derived state of the random stream: keeping the
        old masks alongside a new stream would make the layer's output
        depend on *when* the family happened to be generated.  Clearing
        it makes the next forward a pure function of ``seed``.
        """
        super().reseed(seed)
        self._masks = None
        self._num_features = None

    def masks_for(self, num_features: int) -> np.ndarray:
        """Return (generating on first use) masks for ``num_features``."""
        if self._masks is None or self._num_features != num_features:
            self._masks = generate_masks(
                num_features, self.num_masks, self.scale, self.rng)
            self._num_features = num_features
        return self._masks

    def _draw(self, lead: tuple, shape: tuple) -> np.ndarray:
        """The family rotation from the current sample counter.

        Static masks consume no randomness, so a draw is a pure family
        lookup: pass ``t`` applies mask ``(sample_index + t) %
        num_masks``.  A plan (the counter rewound to 0) stays
        broadcast-compressed — ``(T, 1, F)`` / ``(T, 1, F, 1, 1)``
        rather than a materialized ``(T,) + shape`` array — which lets
        the engines apply a channel mask without ever expanding it to
        activation size.  One pass (a training step, which never
        advances the counter) gets the activation-shaped mask.
        """
        if len(shape) == 4:
            features = shape[1]
            tail = (1, features, 1, 1)
        elif len(shape) == 2:
            features = shape[1]
            tail = (1, features)
        else:
            raise ValueError(
                f"Masksembles expects 2-D or 4-D input, got shape "
                f"{tuple(shape)}")
        family = self.masks_for(features)
        passes = lead[0] if lead else 1
        rotation = (self._sample_index + np.arange(passes)) % self.num_masks
        rows = family[rotation].astype(DTYPE)
        kept = rows.sum(axis=1).astype(np.float64)
        scale = np.where(kept > 0, features / np.maximum(kept, 1.0), 0.0)
        masks = (rows * scale[:, None]).astype(DTYPE)
        if lead:
            return masks.reshape(lead + tail)
        return np.broadcast_to(masks.reshape(tail), shape).astype(DTYPE)

    def hw_traits(self) -> HardwareTraits:
        # Masks live in BRAM (1 bit per channel per mask); no RNG and no
        # comparators on the datapath — just a mask-indexed AND gate.
        return HardwareTraits(
            dynamic=False,
            rng_bits_per_unit=0,
            comparators_per_unit=0,
            mask_storage_per_unit_bits=self.num_masks,
            unit=GRANULARITY_CHANNEL,
        )

    def __repr__(self) -> str:
        return (f"Masksembles(num_masks={self.num_masks}, "
                f"scale={self.scale}, p={self.p:.3f})")
