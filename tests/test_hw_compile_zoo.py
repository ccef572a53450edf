"""Zoo-wide compile coverage: every paper model lowers and executes.

For each model family (MLP, LeNet, VGG-11, ResNet-18 — the slim
variants, identical topology at CI scale) this checks the full chain
the compiler depends on:

* tracing is **stable** (two traces agree layer for layer) and
  **analytic** (conv/linear shapes and MACs match the closed-form
  expressions, parameter totals match the model);
* the deployment **compiles** — every traced layer gets a plan with a
  concrete integer lowering, residual topologies included;
* the compiled kernel **executes deterministically** — repeat
  predictions are byte-identical and per-pass probabilities normalize;
* the folded sweep is **exact** — ``predict`` equals the per-pass
  all-``int64`` oracle (:func:`tests.oracles.fixed_predict_looped`)
  byte for byte, on whole batches and on row windows;
* the kernel **round-trips** ``save_kernel`` → ``load_kernel`` (whose
  record validation must accept every zoo kernel) with identical
  predictions.

ResNet is the interesting case: its residual adds are traced ``add``
layers with two producers, lowered to add plans (an aligned integer
add, then a requantize) that the overflow certificate covers, so the
kernel's program runs a graph rather than a chain.
"""

import numpy as np
import pytest

from repro.analysis.certify import VERDICT_SATURATION_ONLY, certify_kernel
from repro.api import ArtifactStore, ExperimentSpec
from repro.hw import trace_network
from repro.hw.compile import (
    KERNEL_ARTIFACT,
    CompileError,
    compile_deployment,
    load_kernel,
    save_kernel,
)
from repro.hw.compile.formats import aligned_format
from repro.hw.netlist import (
    KIND_ADD,
    KIND_CONV,
    KIND_DROPOUT,
    KIND_GPOOL,
    KIND_LINEAR,
)
from repro.serve import Deployment
from tests.oracles import fixed_predict_looped


def named_modules(model):
    """Traced-name -> module map (same normalization the compiler uses)."""
    modules = {}
    for path, module in model.model._named_modules():
        modules.setdefault(path.rstrip("."), module)
    return modules

#: model -> (dataset, input shape, all-Bernoulli-compatible config).
ZOO = {
    "mlp_slim": ("mnist_like", (1, 16, 16), ("B", "B")),
    "lenet_slim": ("mnist_like", (1, 16, 16), ("B", "B", "M")),
    "vgg11_slim": ("cifar_like", (3, 32, 32), ("B", "B", "B", "B")),
    "resnet18_slim": ("cifar_like", (3, 32, 32), ("B", "B", "B", "B")),
}


@pytest.fixture(scope="module", params=sorted(ZOO), ids=sorted(ZOO))
def zoo_case(request):
    dataset, in_shape, config = ZOO[request.param]
    spec = ExperimentSpec(
        name=f"zoo-{request.param}", model=request.param,
        dataset=dataset, image_size=in_shape[1], dataset_size=120,
        seed=31)
    deployment = Deployment.from_spec(spec, in_shape, config=config)
    return request.param, deployment


@pytest.fixture(scope="module")
def zoo_kernel(zoo_case):
    _, deployment = zoo_case
    return compile_deployment(deployment, calibration_rows=8,
                              num_samples=2)


class TestTraceAnalytics:
    def test_trace_is_stable(self, zoo_case):
        _, deployment = zoo_case
        model = deployment.instantiate()
        first = trace_network(model.model, deployment.input_shape)
        second = trace_network(model.model, deployment.input_shape)
        assert [(l.name, l.kind, l.in_shape, l.out_shape)
                for l in first.layers] \
            == [(l.name, l.kind, l.in_shape, l.out_shape)
                for l in second.layers]

    def test_conv_shapes_and_macs_are_analytic(self, zoo_case):
        _, deployment = zoo_case
        model = deployment.instantiate()
        netlist = trace_network(model.model, deployment.input_shape)
        modules = named_modules(model)
        convs = [l for l in netlist.layers if l.kind == KIND_CONV]
        for layer in convs:
            conv = modules[layer.name]
            c_in, h_in, w_in = layer.in_shape
            k, s, p = conv.kernel_size, conv.stride, conv.padding
            h_out = (h_in + 2 * p - k) // s + 1
            w_out = (w_in + 2 * p - k) // s + 1
            assert layer.out_shape == (conv.out_channels, h_out, w_out)
            assert layer.macs == h_out * w_out * conv.out_channels \
                * c_in * k * k

    def test_linear_shapes_and_macs_are_analytic(self, zoo_case):
        _, deployment = zoo_case
        model = deployment.instantiate()
        netlist = trace_network(model.model, deployment.input_shape)
        modules = named_modules(model)
        linears = [l for l in netlist.layers if l.kind == KIND_LINEAR]
        assert linears, "every zoo model ends in a dense classifier"
        for layer in linears:
            fc = modules[layer.name]
            assert int(np.prod(layer.in_shape)) == fc.in_features
            assert layer.out_shape == (fc.out_features,)
            assert layer.macs == fc.in_features * fc.out_features

    def test_params_match_model_total(self, zoo_case):
        _, deployment = zoo_case
        model = deployment.instantiate()
        netlist = trace_network(model.model, deployment.input_shape)
        assert netlist.total_params == model.model.num_parameters()

    def test_dropout_slots_traced_in_config_order(self, zoo_case):
        _, deployment = zoo_case
        model = deployment.instantiate()
        netlist = trace_network(model.model, deployment.input_shape)
        codes = [l.dropout_code for l in netlist.layers
                 if l.kind == KIND_DROPOUT]
        assert tuple(codes) == deployment.config


class TestZooCompile:
    def test_every_traced_layer_has_a_plan(self, zoo_case, zoo_kernel):
        _, deployment = zoo_case
        model = deployment.instantiate()
        netlist = trace_network(model.model, deployment.input_shape)
        assert [p.name for p in zoo_kernel.plans] \
            == [l.name for l in netlist.layers]
        assert all(p.in_format is not None and p.out_format is not None
                   for p in zoo_kernel.plans)

    def test_dropout_plans_match_config(self, zoo_case, zoo_kernel):
        _, deployment = zoo_case
        assert tuple(p.dropout_code for p in zoo_kernel.dropout_plans) \
            == deployment.config

    def test_kernel_predict_is_deterministic(self, zoo_case, zoo_kernel):
        _, deployment = zoo_case
        rng = np.random.default_rng(7)
        images = rng.normal(
            size=(3,) + deployment.input_shape).astype(np.float32)
        first = zoo_kernel.predict(images, num_samples=2)
        second = zoo_kernel.predict(images, num_samples=2)
        assert first.probs.tobytes() == second.probs.tobytes()
        assert first.probs.shape == (2, 3, 10)
        np.testing.assert_allclose(first.probs.sum(axis=-1), 1.0,
                                   atol=1e-5)

    def test_save_load_round_trip(self, zoo_case, zoo_kernel, tmp_path):
        # The load-time record validation accepts every zoo kernel.
        from repro.api import ArtifactStore
        _, deployment = zoo_case
        store = ArtifactStore(str(tmp_path / "kernel"))
        save_kernel(zoo_kernel, store)
        images = np.random.default_rng(9).normal(
            size=(3,) + deployment.input_shape).astype(np.float32)
        assert load_kernel(store).predict(images, 2).probs.tobytes() \
            == zoo_kernel.predict(images, 2).probs.tobytes()

    @pytest.mark.parametrize("num_samples", [1, 3, 5, 16])
    @pytest.mark.parametrize("rows", [1, 5, 30])
    def test_predict_matches_looped_oracle(self, zoo_case, zoo_kernel,
                                           rows, num_samples):
        _, deployment = zoo_case
        rng = np.random.default_rng(rows)
        images = rng.normal(
            size=(rows,) + deployment.input_shape).astype(np.float32)
        got = zoo_kernel.predict(images, num_samples)
        want = fixed_predict_looped(zoo_kernel, images, num_samples)
        assert got.probs.tobytes() == want.probs.tobytes()

    def test_row_window_matches_looped_oracle(self, zoo_case, zoo_kernel):
        _, deployment = zoo_case
        rng = np.random.default_rng(8)
        images = rng.normal(
            size=(8,) + deployment.input_shape).astype(np.float32)
        window = dict(total_rows=8, row_start=3)
        got = zoo_kernel.predict(images[3:6], 3, **window)
        want = fixed_predict_looped(zoo_kernel, images[3:6], 3, **window)
        assert got.probs.tobytes() == want.probs.tobytes()

    @pytest.mark.parametrize("num_samples", [1, 16])
    def test_row_window_at_one_and_sixteen_passes(self, zoo_case, zoo_kernel,
                                                  num_samples):
        _, deployment = zoo_case
        images = np.random.default_rng(12).normal(
            size=(8,) + deployment.input_shape).astype(np.float32)
        window = dict(total_rows=8, row_start=2)
        got = zoo_kernel.predict(images[2:7], num_samples, **window)
        want = fixed_predict_looped(zoo_kernel, images[2:7], num_samples,
                                    **window)
        assert got.probs.tobytes() == want.probs.tobytes()


class TestResidualTopology:
    """ResNet-specific: branches, strided downsamples, global pool."""

    @pytest.fixture(scope="class")
    def resnet_netlist(self):
        spec = ExperimentSpec(
            name="zoo-residual", model="resnet18_slim",
            dataset="cifar_like", image_size=32, dataset_size=120,
            seed=31)
        deployment = Deployment.from_spec(
            spec, (3, 32, 32), config=("B", "B", "B", "B"))
        model = deployment.instantiate()
        return trace_network(model.model, (3, 32, 32))

    def test_kinds_present(self, resnet_netlist):
        kinds = {l.kind for l in resnet_netlist.layers}
        assert {KIND_CONV, KIND_GPOOL, KIND_LINEAR} <= kinds

    def test_downsample_convs_are_strided(self, resnet_netlist):
        strided = [l for l in resnet_netlist.layers
                   if l.kind == KIND_CONV
                   and l.in_shape[1] == 2 * l.out_shape[1]]
        # Three stage transitions halve the feature map.
        assert len(strided) >= 3

    def test_gpool_collapses_spatial_dims(self, resnet_netlist):
        gpool = [l for l in resnet_netlist.layers
                 if l.kind == KIND_GPOOL]
        assert len(gpool) == 1
        c = gpool[0].in_shape[0]
        assert gpool[0].out_shape in ((c,), (c, 1, 1))


class TestResidualAdds:
    """ResNet's shortcut adds are plans of the kernel's graph."""

    @pytest.fixture(scope="class")
    def resnet_kernel(self):
        spec = ExperimentSpec(
            name="zoo-residual", model="resnet18_slim",
            dataset="cifar_like", image_size=16, dataset_size=120,
            seed=31)
        deployment = Deployment.from_spec(
            spec, (3, 16, 16), config=("B", "R", "K", "M"))
        return compile_deployment(deployment, calibration_rows=8,
                                  num_samples=2)

    def test_adds_are_certified_plans(self, resnet_kernel):
        plans = {p.name: p for p in resnet_kernel.plans}
        adds = [p for p in resnet_kernel.plans if p.kind == KIND_ADD]
        assert len(adds) == 4
        certificate = certify_kernel(resnet_kernel)
        assert certificate.verdict == VERDICT_SATURATION_ONLY
        layers = {layer.name: layer for layer in certificate.layers}
        for plan in adds:
            assert len(plan.inputs) == 2
            # The narrowest format that holds both operands exactly.
            assert plan.in_format == aligned_format(
                [plans[name].out_format for name in plan.inputs])
            assert layers[plan.name].arithmetic
            assert not layers[plan.name].wrap_possible

    def test_add_steps_read_both_branches(self, resnet_kernel):
        steps = {op.plans[0]: op for op in resnet_kernel.ops}
        for plan in resnet_kernel.plans:
            if plan.kind == KIND_ADD:
                assert steps[plan.name].plans == (plan.name,)
                assert len(set(steps[plan.name].args)) == 2
        assert [name for op in resnet_kernel.ops for name in op.plans] \
            == [plan.name for plan in resnet_kernel.plans]

    @pytest.mark.parametrize("num_samples", [1, 3, 16])
    def test_predict_matches_looped_oracle(self, resnet_kernel,
                                           num_samples):
        images = np.random.default_rng(num_samples).normal(
            size=(5, 3, 16, 16)).astype(np.float32) * 3
        got = resnet_kernel.predict(images, num_samples)
        want = fixed_predict_looped(resnet_kernel, images, num_samples)
        assert got.probs.tobytes() == want.probs.tobytes()

    def test_record_without_add_plans_is_refused(self, resnet_kernel,
                                                 tmp_path):
        # A ResNet kernel record saved before adds were plans.
        store = ArtifactStore(str(tmp_path / "kernel"))
        save_kernel(resnet_kernel, store)
        record = store.load_json(KERNEL_ARTIFACT)
        adds = [entry["name"] for entry in record["layers"]
                if entry["kind"] == KIND_ADD]
        record["layers"] = [entry for entry in record["layers"]
                            if entry["kind"] != KIND_ADD]
        store.save_json(KERNEL_ARTIFACT, record)
        with pytest.raises(CompileError, match="recompile") as refused:
            load_kernel(store)
        assert str(adds) in str(refused.value)
