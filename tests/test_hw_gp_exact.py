"""The GP fit on its exact gradient, against the finite-difference fit.

:meth:`repro.hw.gp.GaussianProcessRegressor.fit` runs L-BFGS-B on the
negative log marginal likelihood together with its analytic gradient in
the log-hyperparameters.  The fit it replaced, L-BFGS-B differencing
the likelihood alone, lives in ``tests/oracles.py``
(:func:`~tests.oracles.gp_fit_reference`).  Contracts:

* the objective is the oracle's likelihood, and its gradient equals
  central differences of it, for both kernels;
* on the latency sets the pipeline fits (four backbones, spec seeds
  1-12), the fitted likelihood is never worse than the oracle's, the
  cost model stays within 1% of the analytic synthesis model, and the
  latency-optimal configuration is the oracle's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec
from repro.api.stages import build_supernet
from repro.hw import AcceleratorBuilder, GPLatencyModel, trace_network
from repro.hw.gp import GaussianProcessRegressor, _dimension_sq_dists
from repro.utils.rng import derive_seed
from tests.oracles import gp_nlml_reference, reference_gp_fit

#: The backbones whose latency sets the checks cover, with the dataset
#: and input shape they are specified on.
BACKBONES = {
    "lenet": ("mnist_like", (1, 28, 28)),
    "lenet_slim": ("mnist_like", (1, 16, 16)),
    "vgg11_slim": ("cifar_like", (3, 32, 32)),
    "resnet18_slim": ("cifar_like", (3, 16, 16)),
}

SEEDS = range(1, 13)


@st.composite
def problems(draw):
    """A small regression set and log-hyperparameters inside bounds
    where the kernel matrix stays well conditioned."""
    rows = draw(st.integers(3, 12))
    dims = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, dims))
    y = np.sin(x).sum(axis=1) + 0.1 * rng.normal(size=rows)
    theta = np.concatenate([
        [draw(st.floats(-2.0, 2.0))],
        draw(st.lists(st.floats(-1.5, 1.5), min_size=dims,
                      max_size=dims)),
        [draw(st.floats(-3.0, 0.0))]])
    return x, y - y.mean(), theta


class TestObjective:
    @pytest.mark.parametrize("kernel", ["matern52", "rbf"])
    @given(problem=problems())
    @settings(max_examples=40, deadline=None)
    def test_gradient_equals_central_differences(self, kernel, problem):
        x, y, theta = problem
        gp = GaussianProcessRegressor(kernel=kernel, rng=0)
        sq_dists = _dimension_sq_dists(x)
        value, grad = gp._nlml_and_grad(theta, sq_dists, y)
        assert value == pytest.approx(gp_nlml_reference(gp, theta, x, y),
                                      rel=1e-9, abs=1e-9)
        step = 1e-6
        for index in range(len(theta)):
            shift = np.zeros_like(theta)
            shift[index] = step
            central = (gp._nlml_and_grad(theta + shift, sq_dists, y)[0]
                       - gp._nlml_and_grad(theta - shift, sq_dists, y)[0]
                       ) / (2 * step)
            assert grad[index] == pytest.approx(
                central, rel=1e-5, abs=1e-5 * (1.0 + abs(value)))


@pytest.fixture(scope="module", params=sorted(BACKBONES))
def latency_set(request):
    """A backbone's traced netlist, accelerator config, configurations
    and their analytic latencies, as the pipeline specifies them."""
    dataset, shape = BACKBONES[request.param]
    spec = ExperimentSpec(name="gp-exact", model=request.param,
                          dataset=dataset, image_size=shape[-1], seed=1)
    supernet = build_supernet(spec, shape)
    config = spec.accelerator_config()
    oracle = AcceleratorBuilder(config).latency_oracle(supernet, shape)
    configs = list(supernet.space.enumerate())
    exact = np.array([oracle(c) for c in configs])
    return trace_network(supernet.model, shape), config, configs, exact


@pytest.mark.parametrize("seed", SEEDS)
def test_fit_matches_the_finite_difference_fit(latency_set, seed):
    netlist, config, configs, exact = latency_set
    rng = derive_seed(seed, 7)  # the pipeline's cost-model seed
    model = GPLatencyModel(netlist, config, rng=rng)
    with reference_gp_fit():
        reference = GPLatencyModel(netlist, config, rng=rng)

    def nlml(gp):
        theta = gp._pack(gp.variance, gp.lengthscales, gp.noise)
        return gp_nlml_reference(gp, theta, gp._x, gp._y - gp.mean_const)

    assert nlml(model.gp) <= nlml(reference.gp) + 1e-6
    predicted = np.array([model(c) for c in configs])
    assert np.abs(predicted - exact).mean() < 0.01 * model.base_latency_ms
    referenced = np.array([reference(c) for c in configs])
    assert configs[predicted.argmin()] == configs[referenced.argmin()]
