"""One-call algorithmic evaluation of a dropout-based BayesNN.

Bundles the three algorithmic search objectives of the paper (accuracy,
ECE, aPE) plus supplementary diagnostics into a single report, shared by
the evolutionary search, the exhaustive Figure-4 sweep and the Table-1/3
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bayes.mc import MCPrediction, mc_predict
from repro.bayes.metrics import (
    accuracy,
    average_predictive_entropy,
    brier_score,
    expected_calibration_error,
    negative_log_likelihood,
)
from repro.data.dataset import Dataset
from repro.nn.module import Module
from repro.utils.fields import INT, MEASURED, Declared, MapOf, declare


@dataclass
class AlgorithmicReport(Declared):
    """Algorithmic metrics of one evaluated configuration.

    Attributes:
        accuracy: posterior-predictive accuracy in ``[0, 1]``.
        ece: expected calibration error in ``[0, 1]``.
        ape: average predictive entropy on the OOD set, in nats.
        nll: negative log-likelihood on in-distribution data.
        brier: Brier score on in-distribution data.
        num_mc_samples: Monte-Carlo passes used.
        extras: optional free-form extra diagnostics.
    """

    accuracy: float = declare(MEASURED)
    ece: float = declare(MEASURED)
    ape: float = declare(MEASURED)
    nll: float = declare(MEASURED)
    brier: float = declare(MEASURED)
    num_mc_samples: int = declare(INT)
    extras: Dict[str, float] = declare(MapOf(MEASURED), factory=dict)

    @property
    def accuracy_percent(self) -> float:
        """Accuracy in percent (paper Table 1 convention)."""
        return 100.0 * self.accuracy

    @property
    def ece_percent(self) -> float:
        """ECE in percent (paper Table 1 convention)."""
        return 100.0 * self.ece

    def as_dict(self) -> Dict[str, float]:
        """Flat dict view (used by benches and serialization)."""
        out = {
            "accuracy": self.accuracy,
            "ece": self.ece,
            "ape": self.ape,
            "nll": self.nll,
            "brier": self.brier,
            "num_mc_samples": float(self.num_mc_samples),
        }
        out.update(self.extras)
        return out


def evaluate_bayesnn(model: Module, data: Dataset, ood: Dataset, *,
                     num_samples: int = 3) -> AlgorithmicReport:
    """Evaluate a BayesNN on in-distribution and OOD data.

    Args:
        model: network with MC-dropout layers installed.
        data: labelled in-distribution evaluation split.
        ood: unlabelled OOD set for the aPE metric (paper: Gaussian
            noise with training-data statistics).
        num_samples: Monte-Carlo passes ``T`` (paper uses 3).

    Returns:
        An :class:`AlgorithmicReport` with all metric values.
    """
    pred_id: MCPrediction = mc_predict(model, data.images, num_samples)
    pred_ood: MCPrediction = mc_predict(model, ood.images, num_samples)
    mean_id = pred_id.mean_probs
    return AlgorithmicReport(
        accuracy=accuracy(mean_id, data.labels),
        ece=expected_calibration_error(mean_id, data.labels),
        ape=average_predictive_entropy(pred_ood.mean_probs),
        nll=negative_log_likelihood(mean_id, data.labels),
        brier=brier_score(mean_id, data.labels),
        num_mc_samples=num_samples,
        extras={
            "mean_epistemic_id": float(pred_id.mutual_information().mean()),
            "mean_epistemic_ood": float(pred_ood.mutual_information().mean()),
        },
    )
