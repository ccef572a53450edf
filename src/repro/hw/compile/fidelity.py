"""Measured float-vs-fixed fidelity of a compiled kernel.

The point of executing the quantized network (rather than only costing
it) is that quantization error on the *uncertainty* outputs — the
quantities the search optimized for — becomes a measured number instead
of an assumption.  :func:`measure_fidelity` runs the float serving path
and the integer kernel over the same validation rows under the same
mask contract and reports accuracy/ECE/NLL plus entropy and mutual-
information deltas, alongside each layer's resolved formats and weight
quantization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.bayes.metrics import (
    accuracy,
    expected_calibration_error,
    negative_log_likelihood,
)
from repro.hw.compile.calibrate import (
    DEFAULT_FIDELITY_ROWS,
    calibration_split,
)
from repro.utils.fields import (
    NUMBER,
    STR,
    Declared,
    Int,
    ListOf,
    Record,
    declare,
)


@dataclass
class FidelityLayer(Declared):
    """One compiled layer's resolved formats and weight error.

    Attributes:
        name / kind: traced layer identity.
        activation_format: the layer's output activation format.
        weight_format: its parameter format, when it has parameters.
        weight_error: mean absolute quantization error of the weights.
        dropout_code: the active dropout design of a slot.
    """

    name: str = declare(STR)
    kind: str = declare(STR)
    activation_format: str = declare(STR)
    weight_format: Optional[str] = declare(STR, None)
    weight_error: float = declare(NUMBER, 0.0)
    dropout_code: Optional[str] = declare(STR, None)


@dataclass
class FidelityReport(Declared):
    """Float-vs-fixed comparison of one compiled deployment.

    All metrics are computed over the same ``rows`` validation inputs
    with the same number of Monte-Carlo samples and byte-identical mask
    plans, so every delta is attributable to quantization alone.  The
    report is measured, not derivable: a resumed compile reads it back
    through its declared fields.

    Attributes:
        rows / num_samples: evaluation set size and MC passes.
        float_accuracy .. nll_delta: the three headline metrics on each
            path and ``*_delta`` = fixed - float (a negative accuracy
            delta means quantization hurts).
        agreement: fraction of rows whose argmax prediction matches.
        entropy_delta_mean / entropy_delta_max: mean and max absolute
            predictive-entropy difference, in nats.
        mi_delta_mean / mi_delta_max: same for mutual information.
        mean_probs_delta_max: max absolute posterior-probability error.
        layers: per-layer formats and weight errors, in plan order.
    """

    rows: int = declare(Int(least=1))
    num_samples: int = declare(Int(least=1))
    float_accuracy: float = declare(NUMBER)
    fixed_accuracy: float = declare(NUMBER)
    accuracy_delta: float = declare(NUMBER)
    float_ece: float = declare(NUMBER)
    fixed_ece: float = declare(NUMBER)
    ece_delta: float = declare(NUMBER)
    float_nll: float = declare(NUMBER)
    fixed_nll: float = declare(NUMBER)
    nll_delta: float = declare(NUMBER)
    agreement: float = declare(NUMBER)
    entropy_delta_mean: float = declare(NUMBER)
    entropy_delta_max: float = declare(NUMBER)
    mi_delta_mean: float = declare(NUMBER)
    mi_delta_max: float = declare(NUMBER)
    mean_probs_delta_max: float = declare(NUMBER)
    layers: List[FidelityLayer] = declare(
        ListOf(Record(FidelityLayer), build=list), factory=list)

    def render(self) -> str:
        """Human-readable fidelity table (CLI / report output)."""
        lines = [
            "Fixed-point fidelity "
            f"({self.rows} rows, T={self.num_samples})",
            f"  accuracy  float {self.float_accuracy:.4f}  "
            f"fixed {self.fixed_accuracy:.4f}  "
            f"delta {self.accuracy_delta:+.4f}",
            f"  ECE       float {self.float_ece:.4f}  "
            f"fixed {self.fixed_ece:.4f}  delta {self.ece_delta:+.4f}",
            f"  NLL       float {self.float_nll:.4f}  "
            f"fixed {self.fixed_nll:.4f}  delta {self.nll_delta:+.4f}",
            f"  argmax agreement      {self.agreement:.4f}",
            f"  |entropy delta|       mean {self.entropy_delta_mean:.5f}"
            f"  max {self.entropy_delta_max:.5f}  (nats)",
            f"  |MI delta|            mean {self.mi_delta_mean:.5f}"
            f"  max {self.mi_delta_max:.5f}  (nats)",
            f"  |mean-prob delta| max {self.mean_probs_delta_max:.5f}",
        ]
        if self.layers:
            lines.append("  per-layer formats:")
            for row in self.layers:
                detail = (f"  w {row.weight_format}" if row.weight_format
                          else "")
                if row.weight_error:
                    detail += f"  |dw| {row.weight_error:.2e}"
                lines.append(
                    f"    {row.name:<16} {row.kind:<14} "
                    f"a {row.activation_format}{detail}")
        return "\n".join(lines)


def measure_fidelity(kernel, *, rows: int = DEFAULT_FIDELITY_ROWS,
                     num_samples: Optional[int] = None) -> FidelityReport:
    """Run both paths over validation rows and compare.

    The float reference is the deployment's own serving path
    (:meth:`~repro.serve.Deployment.predict` on a fresh float model);
    the fixed path is ``kernel.predict``.  Both reseed from the same
    serving contract, so their Monte-Carlo mask plans are identical and
    the comparison isolates arithmetic quantization.
    """
    deployment = kernel.deployment
    if num_samples is None:
        num_samples = deployment.spec.mc_samples
    images, labels = calibration_split(deployment.spec, rows=rows)

    float_model = deployment.instantiate()
    float_pred = deployment.predict(float_model, images,
                                    num_samples=num_samples)
    fixed_pred = kernel.predict(images, num_samples=num_samples)

    float_mean = float_pred.mean_probs
    fixed_mean = fixed_pred.mean_probs
    entropy_delta = np.abs(fixed_pred.predictive_entropy()
                           - float_pred.predictive_entropy())
    mi_delta = np.abs(fixed_pred.mutual_information()
                      - float_pred.mutual_information())
    agreement = float(np.mean(fixed_pred.predictions()
                              == float_pred.predictions()))

    metrics = {}
    for name, metric in (("accuracy", accuracy),
                         ("ece", expected_calibration_error),
                         ("nll", negative_log_likelihood)):
        on_float = float(metric(float_mean, labels))
        on_fixed = float(metric(fixed_mean, labels))
        metrics.update({f"float_{name}": on_float,
                        f"fixed_{name}": on_fixed,
                        f"{name}_delta": on_fixed - on_float})

    return FidelityReport(
        rows=int(images.shape[0]),
        num_samples=int(num_samples),
        **metrics,
        agreement=agreement,
        entropy_delta_mean=float(entropy_delta.mean()),
        entropy_delta_max=float(entropy_delta.max()),
        mi_delta_mean=float(mi_delta.mean()),
        mi_delta_max=float(mi_delta.max()),
        mean_probs_delta_max=float(
            np.max(np.abs(fixed_mean - float_mean))),
        layers=[FidelityLayer(
            name=plan.name, kind=plan.kind,
            activation_format=str(plan.out_format),
            weight_format=(str(plan.weight_format)
                           if plan.weight_format else None),
            weight_error=plan.weight_error,
            dropout_code=plan.dropout_code) for plan in kernel.plans],
    )


__all__ = [
    "DEFAULT_FIDELITY_ROWS",
    "FidelityLayer",
    "FidelityReport",
    "measure_fidelity",
]
