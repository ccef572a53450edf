"""Common semantics for the four MC-dropout designs (paper Fig. 1).

Every dropout layer in this library follows the *Monte-Carlo dropout*
convention of Gal & Ghahramani [14]: the stochastic mask is applied both
during training and during inference, so that repeated forward passes
draw different Monte-Carlo samples from the approximate posterior.

A layer is characterized by (paper Fig. 1):

* **granularity** — which unit is dropped: a point (single activation),
  a patch (contiguous spatial block) or a channel (feature map);
* **dynamics** — *dynamic* masks are redrawn per forward pass from an
  RNG on the accelerator, *static* masks are generated offline and
  stored (Masksembles);
* **placement** — whether the design supports convolutional and/or
  fully connected layers.

Every design draws its masks through one sampler, :meth:`DropoutLayer.
_draw`: a training pass asks for one activation-shaped mask, a mask plan
(:meth:`DropoutLayer.sample_masks`) for the ``T`` passes of a
Monte-Carlo prediction at once, and both read the same random stream in
the same order.

Hardware relevance: :meth:`DropoutLayer.hw_traits` summarizes what the
FPGA implementation of the layer needs (per-element random bits,
comparators, mask storage), which :mod:`repro.hw` converts into cycles,
resources and power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.inference import current_mc_batch, is_inference
from repro.nn.module import DTYPE, Module
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_fraction, check_positive_int

#: Granularity labels used across the library (paper Fig. 1 row 2).
GRANULARITY_POINT = "point"
GRANULARITY_PATCH = "patch"
GRANULARITY_CHANNEL = "channel"


@dataclass(frozen=True)
class HardwareTraits:
    """Hardware-relevant characteristics of a dropout design.

    Consumed by :mod:`repro.hw.dropout_hw` to derive cycle counts,
    resource usage and power for the FPGA implementation.

    Attributes:
        dynamic: True if masks are generated on-chip per forward pass.
        rng_bits_per_unit: pseudo-random bits consumed per dropped unit
            (LFSR taps on the accelerator); 0 for offline masks.
        comparators_per_unit: comparator operations per unit (threshold
            tests for Bernoulli sampling, block-window logic, ...).
        mask_storage_per_unit_bits: on-chip mask storage (BRAM) bits per
            unit; nonzero for static designs that keep masks resident.
        unit: granularity the traits are expressed in ("point", "patch"
            or "channel").
    """

    dynamic: bool
    rng_bits_per_unit: int
    comparators_per_unit: int
    mask_storage_per_unit_bits: int
    unit: str


class DropoutLayer(Module):
    """Base class of all MC-dropout layers.

    Args:
        p: drop probability in ``[0, 1)`` (interpretation can vary by
            subclass; for Masksembles it is derived from the scale).
        rng: seed or generator driving mask sampling.
        mc_mode: when True (default) the layer stays stochastic in
            ``eval()`` mode — the MC-dropout behaviour the paper relies
            on.  Set False to recover deterministic test-time identity.

    Subclasses implement :meth:`_draw`, which returns multiplicative
    masks (already inverted-dropout scaled) for ``lead + shape``.
    """

    #: Short configuration code used in paper Table 2 (B/R/K/M).
    code: str = "?"
    #: Human-readable design name.
    design_name: str = "dropout"
    #: Mask granularity (paper Fig. 1).
    granularity: str = GRANULARITY_POINT
    #: True if a fresh mask is drawn every forward pass.
    dynamic: bool = True
    #: Supported placements.
    supports_conv: bool = True
    supports_fc: bool = True

    def __init__(self, p: float = 0.5, *, rng: SeedLike = None,
                 mc_mode: bool = True) -> None:
        super().__init__()
        self.p = check_fraction(p, "p")
        self.rng = new_rng(rng)
        self.mc_mode = bool(mc_mode)
        self._mask: Optional[np.ndarray] = None
        self._sample_index = 0

    # ------------------------------------------------------------------
    # MC sampling protocol
    # ------------------------------------------------------------------
    @property
    def stochastic(self) -> bool:
        """True when the layer currently applies a mask."""
        return self.training or self.mc_mode

    def new_sample(self) -> None:
        """Advance to the next Monte-Carlo sample.

        Dynamic designs redraw masks every forward pass regardless;
        static designs (Masksembles) use this to rotate to the next
        pre-generated mask.  The MC predictor calls this between passes.
        """
        self._sample_index += 1

    @property
    def sample_index(self) -> int:
        """Index of the current Monte-Carlo sample (for static designs)."""
        return self._sample_index

    def reset_samples(self) -> None:
        """Rewind the sample counter (start a fresh MC estimate)."""
        self._sample_index = 0

    def stochastic_state(self) -> dict:
        """JSON-able snapshot of the layer's random-stream state.

        Captures the generator state and the MC sample counter —
        everything an epoch-granular training checkpoint needs to
        continue this layer's mask stream exactly where it stopped.
        Subclasses with derived random state (the Masksembles family)
        extend the dict.  Inverted by :meth:`load_stochastic_state`.
        """
        return {
            "rng_state": self.rng.bit_generator.state,
            "sample_index": int(self._sample_index),
        }

    def load_stochastic_state(self, state: dict) -> None:
        """Restore a :meth:`stochastic_state` snapshot in place.

        The generator object is mutated, not replaced, so layers that
        share one stream (a slot's whole choice bank) keep sharing it.
        """
        self.rng.bit_generator.state = state["rng_state"]
        self._sample_index = int(state["sample_index"])

    def reseed(self, seed: SeedLike) -> None:
        """Replace the layer's random stream and rewind the counter.

        This makes the *next* Monte-Carlo estimate a pure function of
        ``seed`` (given the input), independent of how much randomness
        the layer consumed before — the hook the candidate evaluator
        uses to give every evaluated configuration its own canonical
        mask-plan stream, so evaluation results do not depend on
        evaluation order, process boundaries or resume history.
        Subclasses with derived random state (e.g. the Masksembles mask
        family) additionally drop that state so it regenerates from the
        new stream.
        """
        self.rng = new_rng(seed)
        self.reset_samples()

    def sample_masks(self, num_samples: int, shape) -> np.ndarray:
        """Draw the masks of ``num_samples`` Monte-Carlo passes at once.

        Returns an array broadcastable to ``(num_samples,) + shape``
        whose slice ``t`` equals the mask :meth:`_sample_mask` draws on
        pass ``t`` of a sequential full-batch run: :meth:`_draw` reads
        the stream in the same order for ``lead = (num_samples,)`` as
        for ``num_samples`` calls with ``lead = ()``.  The layer's
        sample counter ends at ``num_samples``, exactly as after
        ``num_samples`` looped passes.

        This is the entry point of the batched MC engine's *mask plan*
        (:class:`repro.nn.inference.MCBatchContext`): masks are always
        planned at the canonical full-batch ``shape``, which makes the
        random stream independent of the pass span.
        """
        num_samples = check_positive_int(num_samples, "num_samples")
        self.reset_samples()
        masks = self._draw((num_samples,), tuple(shape))
        self._sample_index = num_samples
        return masks

    def _sample_mask(self, shape) -> np.ndarray:
        """The multiplicative mask of one pass over an input of ``shape``."""
        return self._draw((), tuple(shape))

    def _draw(self, lead: tuple, shape: tuple) -> np.ndarray:
        """Masks for ``lead + shape`` (``lead`` is ``()`` for one pass,
        ``(T,)`` for a plan), broadcastable to it."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Module interface
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.stochastic:
            self._mask = None
            return x
        ctx = current_mc_batch()
        if ctx is not None:
            # Planned-mask execution (MC engines): masks come from the
            # context's canonical plan; these passes are inference-only,
            # so no backward cache is kept.
            self._mask = None
            return ctx.apply(self, x)
        mask = self._sample_mask(x.shape)
        self._mask = None if is_inference() else mask
        return (x * mask).astype(DTYPE)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return (grad_out * self._mask).astype(DTYPE)

    # ------------------------------------------------------------------
    # Hardware interface
    # ------------------------------------------------------------------
    def hw_traits(self) -> HardwareTraits:
        """Hardware-relevant traits (see :class:`HardwareTraits`)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p})"


def _validate_conv_input(x_shape, design_name: str) -> None:
    """Raise if a conv-only design receives a non-image tensor."""
    if len(x_shape) != 4:
        raise ValueError(
            f"{design_name} operates on (N, C, H, W) feature maps; "
            f"got input of shape {tuple(x_shape)}"
        )
