"""The scalarized search aim — paper Eq. (2).

``aim = eta * Accuracy - mu * ECE + beta * aPE - lambda * Latency``

Accuracy and ECE enter as fractions in ``[0, 1]``, aPE in nats, latency
in milliseconds.  ECE and latency are *negative* terms because lower is
better.  The per-metric weights express the designer's priorities; the
paper's Table 1 uses four single-metric aims (Accuracy / ECE / aPE /
Latency Optimal), all of which are provided as presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bayes.evaluate import AlgorithmicReport


@dataclass(frozen=True)
class SearchAim:
    """Weights of the scalarized multi-objective aim (Eq. 2).

    Attributes:
        eta: weight of accuracy (maximize).
        mu: weight of ECE (minimize — enters negatively).
        beta: weight of aPE (maximize).
        lam: weight of latency in ms (minimize — enters negatively).
        name: display name for tables.
    """

    eta: float = 0.0
    mu: float = 0.0
    beta: float = 0.0
    lam: float = 0.0
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.eta == self.mu == self.beta == self.lam == 0.0:
            raise ValueError("search aim needs at least one nonzero weight")

    def score(self, report: AlgorithmicReport, latency_ms: float) -> float:
        """Evaluate Eq. (2) for one candidate."""
        return (self.eta * report.accuracy
                - self.mu * report.ece
                + self.beta * report.ape
                - self.lam * float(latency_ms))

    def score_parts(self, report: AlgorithmicReport,
                    latency_ms: float) -> Dict[str, float]:
        """Per-term decomposition of the aim (diagnostics)."""
        return {
            "accuracy_term": self.eta * report.accuracy,
            "ece_term": -self.mu * report.ece,
            "ape_term": self.beta * report.ape,
            "latency_term": -self.lam * float(latency_ms),
        }


#: The four single-metric aims of paper Table 1.
ACCURACY_OPTIMAL = SearchAim(eta=1.0, name="Accuracy Optimal")
ECE_OPTIMAL = SearchAim(mu=1.0, name="ECE Optimal")
APE_OPTIMAL = SearchAim(beta=1.0, name="aPE Optimal")
LATENCY_OPTIMAL = SearchAim(lam=1.0, name="Latency Optimal")

#: A balanced aim mixing all four metrics (Sec. 3.4: weights may be
#: prioritized per application).  Accuracy and calibration dominate,
#: with a mild latency pressure in 1/ms units.
BALANCED = SearchAim(eta=1.0, mu=0.5, beta=0.1, lam=0.01, name="Balanced")

#: All presets keyed by short name.
AIM_PRESETS: Dict[str, SearchAim] = {
    "accuracy": ACCURACY_OPTIMAL,
    "ece": ECE_OPTIMAL,
    "ape": APE_OPTIMAL,
    "latency": LATENCY_OPTIMAL,
    "balanced": BALANCED,
}


def get_aim(name_or_aim) -> SearchAim:
    """Resolve a preset name; a :class:`SearchAim` passes through."""
    if isinstance(name_or_aim, SearchAim):
        return name_or_aim
    key = str(name_or_aim).lower()
    if key not in AIM_PRESETS:
        raise KeyError(
            f"unknown aim {name_or_aim!r}; presets: {sorted(AIM_PRESETS)}")
    return AIM_PRESETS[key]
