"""Layer-wise dropout search space (paper Sec. 3.2).

A network exposes ``N`` specified dropout slots; slot ``i`` admits
``M_i`` dropout designs.  A *configuration* commits each slot to one
design, so the space holds ``prod(M_i)`` candidate sub-networks —
uniform configurations (all slots equal) and hybrid ones alike.

Configurations are written in the paper's Table-2 notation: dash-joined
codes such as ``"B-B-M"`` (Bernoulli, Bernoulli, Masksembles).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.dropout.registry import DROPOUT_REGISTRY, resolve_code
from repro.models.slots import DropoutSlot
from repro.nn.module import Module
from repro.utils.fields import NAME, Choice, Kind, ListOf, declare
from repro.utils.rng import SeedLike, new_rng

#: A dropout configuration: one design code per specified slot.
DropoutConfig = Tuple[str, ...]

#: A design code as a record holds it: registered, and never a name.
DESIGN_CODE = Kind("a registered design code",
                   lambda v: isinstance(v, str) and v in DROPOUT_REGISTRY)
#: A dropout configuration as a record holds it.
CONFIG = ListOf(DESIGN_CODE, least=1)


def config_to_string(config: DropoutConfig) -> str:
    """Format a configuration in Table-2 notation, e.g. ``'B-B-M'``."""
    return "-".join(config)


def config_from_string(text: str) -> DropoutConfig:
    """Parse Table-2 notation (``'B-B-M'``) into a configuration."""
    parts = [p.strip() for p in text.split("-") if p.strip()]
    if not parts:
        raise ValueError(f"empty configuration string {text!r}")
    return tuple(resolve_code(p) for p in parts)


@dataclass(frozen=True)
class SlotSpec:
    """Specification of one searchable dropout slot.

    Attributes:
        name: slot name (unique within the space).
        placement: ``'conv'`` or ``'fc'``.
        choices: admissible design codes, in canonical order.
    """

    name: str = declare(NAME)
    placement: str = declare(Choice("conv", "fc"))
    choices: Tuple[str, ...] = declare(ListOf(DESIGN_CODE))

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"slot {self.name!r} has no choices")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"slot {self.name!r} has duplicate choices")


class SearchSpace:
    """The product space over all specified dropout slots.

    Args:
        slots: ordered slot specifications.

    The space supports exact enumeration, uniform sampling (the SPOS
    training distribution), and validation of externally supplied
    configurations.
    """

    def __init__(self, slots: Sequence[SlotSpec]) -> None:
        if not slots:
            raise ValueError("search space needs at least one slot")
        names = [s.name for s in slots]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate slot names: {names}")
        self.slots: List[SlotSpec] = list(slots)

    @classmethod
    def from_model(cls, model: Module) -> "SearchSpace":
        """Derive the space from a model's :class:`DropoutSlot` layers."""
        slots = [m for m in model.modules() if isinstance(m, DropoutSlot)]
        if not slots:
            raise ValueError("model exposes no DropoutSlot layers")
        return cls([
            SlotSpec(s.name, s.placement, tuple(s.choices)) for s in slots
        ])

    # ------------------------------------------------------------------
    # Size / membership
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Number of specified dropout layers ``N``."""
        return len(self.slots)

    @property
    def size(self) -> int:
        """Total number of candidate configurations ``prod(M_i)``."""
        size = 1
        for slot in self.slots:
            size *= len(slot.choices)
        return size

    def validate(self, config: DropoutConfig) -> DropoutConfig:
        """Normalize and check that ``config`` belongs to this space."""
        if len(config) != self.num_slots:
            raise ValueError(
                f"configuration {config} has {len(config)} genes; "
                f"space has {self.num_slots} slots")
        normalized = tuple(resolve_code(c) for c in config)
        for gene, slot in zip(normalized, self.slots):
            if gene not in slot.choices:
                raise ValueError(
                    f"design {gene!r} not admissible in slot "
                    f"{slot.name!r} (choices {slot.choices})")
        return normalized

    def __contains__(self, config) -> bool:
        try:
            self.validate(tuple(config))
        except (ValueError, KeyError):
            return False
        return True

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def sample(self, rng: SeedLike = None) -> DropoutConfig:
        """Uniformly sample one configuration (SPOS path sampling)."""
        rng = new_rng(rng)
        return tuple(
            slot.choices[rng.integers(len(slot.choices))]
            for slot in self.slots
        )

    def enumerate(self) -> Iterator[DropoutConfig]:
        """Yield every configuration in lexicographic slot order."""
        return iter(itertools.product(*(s.choices for s in self.slots)))

    def uniform_configs(self) -> List[DropoutConfig]:
        """The uniform (single-design) configurations present in the space.

        These are the paper's manual baselines ('All Bernoulli', ...):
        a design qualifies only if every slot admits it.
        """
        common = set(self.slots[0].choices)
        for slot in self.slots[1:]:
            common &= set(slot.choices)
        return [tuple([code] * self.num_slots)
                for code in sorted(common)]

    def is_hybrid(self, config: DropoutConfig) -> bool:
        """True if ``config`` mixes at least two distinct designs."""
        return len(set(config)) > 1

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{s.name}:{'/'.join(s.choices)}" for s in self.slots)
        return f"SearchSpace({inner}; size={self.size})"
