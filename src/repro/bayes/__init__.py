"""MC-dropout Bayesian inference and uncertainty metrics."""

from repro.bayes.calibration import (
    ReliabilityBin,
    TemperatureScaler,
    ece_from_diagram,
    reliability_diagram,
)
from repro.bayes.evaluate import AlgorithmicReport, evaluate_bayesnn
from repro.bayes.mc import MCPrediction, mc_predict, mc_predict_looped
from repro.bayes.metrics import (
    accuracy,
    average_predictive_entropy,
    brier_score,
    expected_calibration_error,
    max_entropy,
    negative_log_likelihood,
    ood_auroc,
)

__all__ = [
    "AlgorithmicReport",
    "MCPrediction",
    "ReliabilityBin",
    "TemperatureScaler",
    "accuracy",
    "average_predictive_entropy",
    "brier_score",
    "ece_from_diagram",
    "evaluate_bayesnn",
    "expected_calibration_error",
    "max_entropy",
    "mc_predict",
    "mc_predict_looped",
    "negative_log_likelihood",
    "ood_auroc",
    "reliability_diagram",
]
