"""Random dropout: per-pass random granularity (point or channel).

Paper Fig. 1 characterizes *Random Dropout* as point/channel granularity
with dynamic sampling, applicable to both FC and CONV layers.  Each
forward pass randomly commits to one granularity: either independent
point-wise drops or whole-feature-map (channel) drops, in the spirit of
spatial dropout.  This gives mask correlation structure between the two
extremes of Bernoulli (pure point) and channel dropout.
"""

from __future__ import annotations

import numpy as np

from repro.dropout.base import (
    GRANULARITY_CHANNEL,
    GRANULARITY_POINT,
    DropoutLayer,
    HardwareTraits,
)
from repro.nn.module import DTYPE
from repro.utils.rng import SeedLike


class RandomDropout(DropoutLayer):
    """Dropout that randomly alternates point and channel granularity.

    Args:
        p: drop probability applied at whichever granularity is active.
        channel_prob: probability that a given forward pass uses channel
            granularity (0.5 by default — unbiased alternation).
        rng, mc_mode: see :class:`repro.dropout.base.DropoutLayer`.
    """

    code = "R"
    design_name = "random"
    granularity = f"{GRANULARITY_POINT}/{GRANULARITY_CHANNEL}"
    dynamic = True
    supports_conv = True
    supports_fc = True

    def __init__(self, p: float = 0.5, *, channel_prob: float = 0.5,
                 rng: SeedLike = None, mc_mode: bool = True) -> None:
        super().__init__(p, rng=rng, mc_mode=mc_mode)
        if not 0.0 <= channel_prob <= 1.0:
            raise ValueError(
                f"channel_prob must be in [0, 1], got {channel_prob}")
        self.channel_prob = float(channel_prob)
        self._last_granularity = GRANULARITY_POINT

    @property
    def last_granularity(self) -> str:
        """Granularity used by the most recent stochastic forward pass."""
        return self._last_granularity

    def _draw(self, lead: tuple, shape: tuple) -> np.ndarray:
        """One pass's mask, or a plan's passes drawn one after another.

        Each pass first draws a scalar granularity choice and then a
        mask whose *shape depends on that choice*, so the random stream
        interleaves scalar and array draws — collapsing the ``T``
        passes into one array draw would change the stream.  A plan
        therefore loops over the per-pass draw; the fused engine still
        batches the forward passes themselves.
        """
        if lead:
            masks = np.empty(lead + shape, dtype=DTYPE)
            for t in range(lead[0]):
                masks[t] = self._draw((), shape)
            return masks
        keep = 1.0 - self.p
        if keep >= 1.0:
            return np.ones(shape, dtype=DTYPE)
        use_channel = self.rng.random() < self.channel_prob
        if use_channel:
            self._last_granularity = GRANULARITY_CHANNEL
            if len(shape) == 4:
                mask_shape = (shape[0], shape[1], 1, 1)
            elif len(shape) == 2:
                # For FC tensors "channel" degenerates to per-feature,
                # shared across the batch: drop whole columns.
                mask_shape = (1, shape[1])
            else:
                raise ValueError(
                    f"RandomDropout expects 2-D or 4-D input, got shape "
                    f"{tuple(shape)}")
            bern = self.rng.random(mask_shape) < keep
            mask = np.broadcast_to(bern, shape)
        else:
            self._last_granularity = GRANULARITY_POINT
            mask = self.rng.random(shape) < keep
        return mask * DTYPE(1.0 / keep)

    def hw_traits(self) -> HardwareTraits:
        # Needs the Bernoulli point datapath *plus* a channel-mask path
        # with a per-pass granularity select: RNG word per element in the
        # worst case and two comparator levels (threshold + mode mux).
        return HardwareTraits(
            dynamic=True,
            rng_bits_per_unit=16,
            comparators_per_unit=2,
            mask_storage_per_unit_bits=0,
            unit=GRANULARITY_POINT,
        )
