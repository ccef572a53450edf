"""Block dropout — DropBlock-style patch dropout (Ghiasi et al. [15]).

Granularity: patch.  Dynamics: dynamic.  Placement: CONV only — patches
are contiguous spatial regions, which do not exist for FC tensors.

Contiguous ``block_size``-square regions of every feature map are zeroed
together.  Seed positions are sampled with a rate ``gamma`` chosen so
that the *expected* fraction of dropped activations equals ``p``; the
surviving activations are rescaled by ``count / count_kept`` per sample
(the DropBlock normalization).
"""

from __future__ import annotations

import numpy as np

from repro.dropout.base import (
    GRANULARITY_PATCH,
    DropoutLayer,
    HardwareTraits,
    _validate_conv_input,
)
from repro.nn.module import DTYPE
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int


class BlockDropout(DropoutLayer):
    """DropBlock: drop contiguous spatial patches of feature maps.

    Args:
        p: target expected fraction of dropped activations.
        block_size: side length of the square dropped patches.
        rng, mc_mode: see :class:`repro.dropout.base.DropoutLayer`.
    """

    code = "K"
    design_name = "block"
    granularity = GRANULARITY_PATCH
    dynamic = True
    supports_conv = True
    supports_fc = False

    def __init__(self, p: float = 0.5, *, block_size: int = 3,
                 rng: SeedLike = None, mc_mode: bool = True) -> None:
        super().__init__(p, rng=rng, mc_mode=mc_mode)
        self.block_size = check_positive_int(block_size, "block_size")

    def _gamma(self, h: int, w: int, block: int) -> float:
        """Seed rate so the expected dropped fraction approximates p.

        DropBlock eq. (1): gamma = p / block^2 * (h*w) / ((h-b+1)(w-b+1)).
        """
        valid_h = max(h - block + 1, 1)
        valid_w = max(w - block + 1, 1)
        return (self.p / (block * block)) * (h * w) / (valid_h * valid_w)

    def _draw(self, lead: tuple, shape: tuple) -> np.ndarray:
        """Masks of shape ``lead + shape`` from one seed draw.

        The seed-position draw is a single ``lead + (N, C, vh, vw)``
        uniform sample, so a plan's draw is bit-identical to ``T``
        sequential ones.  Each seed is dilated to a ``block x block``
        patch separably, first along columns and then along whole rows,
        and every sample ``(lead..., n)`` is renormalized by
        ``C*H*W / kept`` (in float32), with ``kept`` counted by
        ``count_nonzero``.
        """
        _validate_conv_input(shape, "BlockDropout")
        n, c, h, w = shape
        full = lead + shape
        if self.p == 0.0:
            return np.ones(full, dtype=DTYPE)
        block = min(self.block_size, h, w)
        gamma = min(self._gamma(h, w, block), 1.0)
        valid_h, valid_w = h - block + 1, w - block + 1
        seeds = self.rng.random(lead + (n, c, valid_h, valid_w)) < gamma
        columns = np.zeros(lead + (n, c, valid_h, w), dtype=bool)
        for dj in range(block):
            columns[..., dj:dj + valid_w] |= seeds
        drop = np.zeros(full, dtype=bool)
        for di in range(block):
            drop[..., di:di + valid_h, :] |= columns
        keep = ~drop.reshape(lead + (n, c * h * w))
        kept = np.count_nonzero(keep, axis=-1)
        # Per-sample renormalization; fully-dropped samples stay zero.
        scale = np.where(kept > 0, DTYPE(c * h * w)
                         / np.maximum(kept, 1).astype(DTYPE), DTYPE(0.0))
        return (keep * scale[..., None]).reshape(full)

    def hw_traits(self) -> HardwareTraits:
        # A seed RNG per valid position plus a block^2-window OR-dilation:
        # the window logic costs one comparator-equivalent per block cell.
        return HardwareTraits(
            dynamic=True,
            rng_bits_per_unit=16,
            comparators_per_unit=self.block_size * self.block_size,
            mask_storage_per_unit_bits=0,
            unit=GRANULARITY_PATCH,
        )

    def __repr__(self) -> str:
        return f"BlockDropout(p={self.p}, block_size={self.block_size})"
