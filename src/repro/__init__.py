"""repro — Hardware-aware neural dropout search (DAC 2024 reproduction).

A self-contained reproduction of *"Hardware-Aware Neural Dropout Search
for Reliable Uncertainty Prediction on FPGA"* (Zhang et al., DAC 2024):
dropout-based Bayesian neural networks, a layer-wise dropout search
space optimized with one-shot SPOS supernet training plus an
evolutionary algorithm, and an FPGA accelerator-generation phase with a
Gaussian-process hardware cost model.

Subpackages
-----------
``repro.nn``
    From-scratch numpy deep-learning substrate (layers, losses, optim).
``repro.dropout``
    The four dropout designs: Bernoulli, Random, Block, Masksembles.
``repro.models``
    LeNet / VGG11 / ResNet18 with named dropout slots.
``repro.data``
    Synthetic MNIST/SVHN/CIFAR-like datasets plus Gaussian-noise OOD.
``repro.bayes``
    MC-dropout inference and uncertainty metrics (accuracy, ECE, aPE).
``repro.search``
    SPOS supernet + evolutionary dropout search (the paper's core).
``repro.hw``
    FPGA performance/resource/power simulator, fixed-point arithmetic,
    GP latency cost model, HLS code generation, platform baselines.
``repro.api``
    The experiment layer: declarative ``ExperimentSpec``, the
    stage-based resumable pipeline over an ``ArtifactStore``, and the
    ``Runner`` / ``run_experiments`` facade.  Start here.
``repro.serve``
    The serving layer: exportable ``Deployment`` artifacts and the
    async micro-batching ``UncertaintyService`` answering concurrent
    requests from fused MC-dropout passes.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
