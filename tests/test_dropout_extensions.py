"""Tests for the extension mechanism and Gaussian dropout.

The paper's conclusion lists "incorporating additional dropout designs
into our search space" as future work; these tests cover that hook.
"""

import numpy as np
import pytest

from repro.dropout import (
    ALL_CODES,
    DROPOUT_REGISTRY,
    GAUSSIAN_HW_PROFILE,
    BernoulliDropout,
    GaussianDropout,
    codes_for_placement,
    make_dropout,
    register_design,
    registered_design,
    resolve_code,
    unregister_design,
)
from repro.hw.dropout_hw import STALL_CYCLES_PER_ELEMENT, dropout_stall_cycles


class TestGaussianDropout:
    def test_mean_preserved(self):
        d = GaussianDropout(0.3, rng=0)
        x = np.ones((200, 200), dtype=np.float32)
        assert float(d(x).mean()) == pytest.approx(1.0, abs=0.01)

    def test_variance_matches_formula(self):
        p = 0.4
        d = GaussianDropout(p, rng=1)
        x = np.ones((300, 300), dtype=np.float32)
        y = d(x)
        assert float(y.var()) == pytest.approx(p / (1 - p), rel=0.05)

    def test_sigma_property(self):
        d = GaussianDropout(0.5, rng=2)
        assert d.sigma == pytest.approx(1.0)

    def test_p_zero_is_identity(self):
        d = GaussianDropout(0.0, rng=3)
        x = np.random.default_rng(0).normal(size=(4, 8)).astype(np.float32)
        assert np.allclose(d(x), x)

    def test_dynamic(self):
        d = GaussianDropout(0.3, rng=4)
        x = np.ones((2, 10), dtype=np.float32)
        assert not np.array_equal(d(x), d(x))

    def test_backward_uses_noise_mask(self):
        d = GaussianDropout(0.3, rng=5)
        x = np.ones((3, 6), dtype=np.float32)
        y = d(x)
        g = d.backward(np.ones_like(x))
        assert np.allclose(g, y, atol=1e-6)

    def test_hw_traits(self):
        traits = GaussianDropout(0.3).hw_traits()
        assert traits.dynamic
        assert traits.comparators_per_unit == 0
        assert traits.rng_bits_per_unit == 64


class TestRegistration:
    def test_context_manager_registers_and_cleans(self):
        assert "G" not in DROPOUT_REGISTRY
        with registered_design(GaussianDropout,
                               hw_profile=GAUSSIAN_HW_PROFILE):
            assert "G" in DROPOUT_REGISTRY
            assert "G" in ALL_CODES
            assert resolve_code("gaussian") == "G"
            assert "G" in codes_for_placement("conv")
            assert "G" in codes_for_placement("fc")
            layer = make_dropout("G", p=0.2, rng=0)
            assert isinstance(layer, GaussianDropout)
            assert dropout_stall_cycles("G", 1000) == pytest.approx(
                GAUSSIAN_HW_PROFILE["stall_cycles_per_element"] * 1000)
        assert "G" not in DROPOUT_REGISTRY
        assert "G" not in ALL_CODES
        assert "G" not in STALL_CYCLES_PER_ELEMENT

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_design(BernoulliDropout)

    def test_core_designs_protected(self):
        with pytest.raises(ValueError, match="core designs"):
            unregister_design("B")

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_design("Z")

    def test_non_layer_rejected(self):
        with pytest.raises(TypeError):
            register_design(dict)


class TestExtendedSearchSpace:
    def test_slot_admits_extension_design(self):
        from repro.models.slots import DropoutSlot
        with registered_design(GaussianDropout,
                               hw_profile=GAUSSIAN_HW_PROFILE):
            slot = DropoutSlot("s", "conv")
            assert slot.choices == ["B", "R", "K", "M", "G"]
            slot.build_choice_bank(rng=0, p=0.2)
            slot.select("G")
            x = np.ones((2, 4, 5, 5), dtype=np.float32)
            assert slot(x).shape == x.shape

    def test_space_size_grows(self):
        from repro.models import build_model
        from repro.search import SearchSpace
        with registered_design(GaussianDropout,
                               hw_profile=GAUSSIAN_HW_PROFILE):
            model = build_model("lenet_slim", image_size=16, rng=0)
            space = SearchSpace.from_model(model)
            # conv slots gain G (5 choices); the fc slot stays B/M
            # because LeNet pins its choices explicitly.
            assert space.size == 5 * 5 * 2

    def test_supernet_trains_with_extension(self, mnist_splits):
        from repro.models import build_model
        from repro.search import Supernet, TrainConfig, train_supernet
        with registered_design(GaussianDropout,
                               hw_profile=GAUSSIAN_HW_PROFILE):
            model = build_model("lenet_slim", image_size=16, rng=0)
            net = Supernet(model, p=0.15, rng=1)
            log = train_supernet(net, mnist_splits.train,
                                 TrainConfig(epochs=2), rng=2)
            assert log.epoch_losses[-1] < log.epoch_losses[0]
            net.set_config(("G", "G", "B"))
            x = mnist_splits.val.images[:4]
            assert net(x).shape == (4, 10)


class TestExtensionHardware:
    def test_perf_model_costs_extension(self):
        from repro.hw import AcceleratorConfig, estimate, trace_network
        from repro.models import build_model
        from repro.search import Supernet
        with registered_design(GaussianDropout,
                               hw_profile=GAUSSIAN_HW_PROFILE):
            model = build_model("lenet_slim", image_size=16, rng=0)
            net = Supernet(model, rng=1)
            net.set_config(("G", "G", "B"))
            netlist = trace_network(net.model, (1, 16, 16))
            perf = estimate(netlist, AcceleratorConfig(pe=8))
            assert perf.latency_ms > 0
            # Gaussian sits between Bernoulli and Random in stall cost.
            net.set_config(("B", "B", "B"))
            perf_b = estimate(trace_network(net.model, (1, 16, 16)),
                              AcceleratorConfig(pe=8))
            net.set_config(("R", "R", "B"))
            perf_r = estimate(trace_network(net.model, (1, 16, 16)),
                              AcceleratorConfig(pe=8))
            assert perf_b.latency_ms < perf.latency_ms < perf_r.latency_ms

    def test_codegen_emits_gaussian_unit(self, tmp_path):
        from repro.api import ExperimentSpec
        from repro.hw import AcceleratorBuilder, AcceleratorConfig, \
            emit_hls_project
        from repro.hw.compile import compile_deployment
        from repro.serve import Deployment
        with registered_design(GaussianDropout,
                               hw_profile=GAUSSIAN_HW_PROFILE):
            spec = ExperimentSpec(name="ext", model="lenet_slim",
                                  dataset="mnist_like", image_size=16,
                                  dataset_size=120, seed=0)
            deployment = Deployment.from_spec(spec, (1, 16, 16),
                                              config=("G", "B", "M"))
            kernel = compile_deployment(deployment, calibration_rows=8,
                                        num_samples=2)
            builder = AcceleratorBuilder(AcceleratorConfig(pe=8))
            design = builder.build_for_config(
                deployment.instantiate(), (1, 16, 16), ("G", "B", "M"))
            emit_hls_project(design, kernel, str(tmp_path),
                             project_name="ext")
            text = (tmp_path / "firmware" / "ext.cpp").read_text()
            assert "gaussian_dropout" in text


class TestSparsitySupport:
    def test_sparsity_reduces_latency(self):
        from repro.hw import AcceleratorConfig, estimate, trace_network
        from repro.models import build_model
        model = build_model("lenet_slim", image_size=16, rng=0)
        netlist = trace_network(model, (1, 16, 16))
        dense = estimate(netlist, AcceleratorConfig(pe=8))
        sparse = estimate(netlist,
                          AcceleratorConfig(pe=8, weight_sparsity=0.5))
        assert sparse.latency_ms < dense.latency_ms

    def test_sparsity_reduces_weight_bram(self):
        from repro.hw import AcceleratorConfig, estimate, trace_network
        from repro.models import build_model
        model = build_model("lenet", rng=0)
        netlist = trace_network(model, (1, 28, 28))
        dense = estimate(netlist, AcceleratorConfig(pe=8))
        sparse = estimate(netlist,
                          AcceleratorConfig(pe=8, weight_sparsity=0.75))
        assert sparse.resources.bram36 < dense.resources.bram36

    def test_invalid_sparsity(self):
        from repro.hw import AcceleratorConfig
        with pytest.raises(ValueError):
            AcceleratorConfig(weight_sparsity=1.0)
        with pytest.raises(ValueError):
            AcceleratorConfig(weight_sparsity=-0.1)

    def test_zero_sparsity_is_paper_dense(self):
        from repro.hw import AcceleratorConfig, estimate, trace_network
        from repro.models import build_model
        model = build_model("lenet_slim", image_size=16, rng=0)
        netlist = trace_network(model, (1, 16, 16))
        a = estimate(netlist, AcceleratorConfig(pe=8))
        b = estimate(netlist, AcceleratorConfig(pe=8,
                                                weight_sparsity=0.0))
        assert a.latency_ms == b.latency_ms