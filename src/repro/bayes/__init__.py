"""MC-dropout Bayesian inference and uncertainty metrics."""

from repro.bayes.evaluate import AlgorithmicReport, evaluate_bayesnn
from repro.bayes.mc import MCPrediction, mc_predict
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
    "accuracy",
    "average_predictive_entropy",
    "brier_score",
    "evaluate_bayesnn",
    "expected_calibration_error",
    "max_entropy",
    "mc_predict",
    "negative_log_likelihood",
    "ood_auroc",
]
