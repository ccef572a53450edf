"""Bernoulli (point-wise) MC dropout — Gal & Ghahramani [14].

Granularity: point.  Dynamics: dynamic (fresh mask each pass).
Placement: convolutional and fully connected layers (paper Fig. 1 lists
CONV as the representative placement; FC works identically).
"""

from __future__ import annotations

import numpy as np

from repro.dropout.base import (
    GRANULARITY_POINT,
    DropoutLayer,
    HardwareTraits,
)
from repro.nn.module import DTYPE


class BernoulliDropout(DropoutLayer):
    """Classic inverted dropout with an independent coin per activation.

    Each activation survives with probability ``1 - p`` and is scaled by
    ``1 / (1 - p)`` so the expected pre-activation is unchanged, making
    train-time and MC-inference-time magnitudes consistent.
    """

    code = "B"
    design_name = "bernoulli"
    granularity = GRANULARITY_POINT
    dynamic = True
    supports_conv = True
    supports_fc = True

    def _draw(self, lead: tuple, shape: tuple) -> np.ndarray:
        """One uniform draw over ``lead + shape``.

        ``Generator.random`` fills arrays from the bit stream in C
        order, so a plan's single ``(T,) + shape`` draw is bit-identical
        to ``T`` sequential ``shape`` draws.
        """
        keep = 1.0 - self.p
        if keep >= 1.0:
            return np.ones(lead + shape, dtype=DTYPE)
        return (self.rng.random(lead + shape) < keep) * DTYPE(1.0 / keep)

    def hw_traits(self) -> HardwareTraits:
        # One uniform draw compared against a threshold per activation:
        # an LFSR word and one fixed-point comparator per element.
        return HardwareTraits(
            dynamic=True,
            rng_bits_per_unit=16,
            comparators_per_unit=1,
            mask_storage_per_unit_bits=0,
            unit=GRANULARITY_POINT,
        )
