"""Small argument-validation helpers shared across the library.

These raise early with precise messages instead of letting numpy produce
an opaque broadcasting error three stack frames later.
"""

from __future__ import annotations

import numpy as np


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_fraction(value: float, name: str, *, inclusive_low: bool = True,
                   inclusive_high: bool = False) -> float:
    """Validate that ``value`` lies in the unit interval and return it.

    Bounds default to the dropout-rate convention ``0.0 <= p < 1.0``.
    """
    value = float(value)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        lo = "[0" if inclusive_low else "(0"
        hi = "1]" if inclusive_high else "1)"
        raise ValueError(f"{name} must be in {lo}, {hi}, got {value}")
    return value


def check_shape_4d(x: np.ndarray, name: str) -> np.ndarray:
    """Validate a batched image tensor of shape ``(N, C, H, W)``."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(
            f"{name} must have shape (N, C, H, W); got ndim={x.ndim}, "
            f"shape={x.shape}"
        )
    return x


def check_same_length(a, b, name_a: str, name_b: str) -> None:
    """Validate that two sequences have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length; "
            f"got {len(a)} and {len(b)}"
        )
