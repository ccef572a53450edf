"""Gaussian (multiplicative-noise) dropout — an extension design.

The paper's conclusion lists *"incorporating additional dropout designs
into our search space"* as future work; this module provides the first
such extension: Gaussian dropout (Srivastava et al., 2014), where each
activation is multiplied by noise drawn from ``N(1, p / (1 - p))``.
It is point-granular, dynamic, placeable after conv and FC layers, and
is registered into the search space via
:func:`repro.dropout.registry.register_design`.

On hardware the design needs a Gaussian pseudo-random generator — the
standard implementation sums several LFSR words (central-limit
approximation), as in VIBNN's RNG design [3] — and one multiplier per
element instead of a comparator.
"""

from __future__ import annotations

import numpy as np

from repro.dropout.base import (
    GRANULARITY_POINT,
    DropoutLayer,
    HardwareTraits,
)
from repro.nn.module import DTYPE


class GaussianDropout(DropoutLayer):
    """Multiplicative Gaussian-noise dropout.

    Activations are scaled by ``N(1, sigma^2)`` with
    ``sigma^2 = p / (1 - p)``, matching the variance of inverted
    Bernoulli dropout at rate ``p``.  The expectation is exactly the
    identity, so no rescaling is needed.
    """

    code = "G"
    design_name = "gaussian"
    granularity = GRANULARITY_POINT
    dynamic = True
    supports_conv = True
    supports_fc = True

    @property
    def sigma(self) -> float:
        """Noise standard deviation implied by the drop rate."""
        return float(np.sqrt(self.p / (1.0 - self.p)))

    def _draw(self, lead: tuple, shape: tuple) -> np.ndarray:
        """One Gaussian draw over ``lead + shape``.

        ``Generator.normal`` consumes the bit stream one value at a
        time in C order, so a plan's ``(T,) + shape`` draw reproduces
        ``T`` sequential ``shape`` draws bit-for-bit.
        """
        if self.p == 0.0:
            return np.ones(lead + shape, dtype=DTYPE)
        return self.rng.normal(1.0, self.sigma,
                               size=lead + shape).astype(DTYPE)

    def hw_traits(self) -> HardwareTraits:
        # CLT Gaussian generator: four LFSR words summed per element,
        # then one fixed-point multiply (no comparator).
        return HardwareTraits(
            dynamic=True,
            rng_bits_per_unit=64,
            comparators_per_unit=0,
            mask_storage_per_unit_bits=0,
            unit=GRANULARITY_POINT,
        )


#: Hardware cost profile consumed by ``register_design`` (see
#: :mod:`repro.hw.dropout_hw`): the CLT adder tree pipelines well but
#: not perfectly, landing between Bernoulli and Random.
GAUSSIAN_HW_PROFILE = {
    "stall_cycles_per_element": 0.6,
    "comparators_per_element": 0.5,  # multiplier modeled as half a cmp
    "ffs_per_lane": 128,
    "luts_per_lane": 180,
}
