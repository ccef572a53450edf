"""Tests for the analytic latency/resource model."""

import pytest

from repro.hw import AcceleratorConfig, XCKU115, estimate, trace_network
from repro.hw.netlist import KIND_ADD, Netlist
from repro.models import build_model
from repro.search import Supernet


@pytest.fixture(scope="module")
def lenet_netlists():
    """Netlists of the slim LeNet under each uniform configuration."""
    model = build_model("lenet_slim", image_size=16, rng=0)
    net = Supernet(model, rng=1)
    out = {}
    for code in ("B", "M"):
        net.set_config((code, code, code))
        out[code] = trace_network(net.model, (1, 16, 16))
    net.set_config(("R", "R", "B"))
    out["R"] = trace_network(net.model, (1, 16, 16))
    net.set_config(("K", "K", "B"))
    out["K"] = trace_network(net.model, (1, 16, 16))
    return out


class TestAcceleratorConfig:
    def test_defaults(self):
        cfg = AcceleratorConfig()
        assert cfg.device is XCKU115
        assert cfg.effective_clock_mhz == 181.0

    def test_clock_override(self):
        assert AcceleratorConfig(clock_mhz=200.0).effective_clock_mhz == 200.0

    def test_invalid_pe(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(pe=0)

    def test_invalid_residency(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(weight_residency=0.0)
        with pytest.raises(ValueError):
            AcceleratorConfig(weight_residency=1.5)

    def test_invalid_mc_samples(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(mc_samples=0)


class TestLatency:
    def test_latency_positive(self, lenet_netlists):
        perf = estimate(lenet_netlists["B"], AcceleratorConfig(pe=8))
        assert perf.latency_ms > 0

    def test_more_pe_is_faster(self, lenet_netlists):
        slow = estimate(lenet_netlists["B"], AcceleratorConfig(pe=4))
        fast = estimate(lenet_netlists["B"], AcceleratorConfig(pe=64))
        assert fast.latency_ms < slow.latency_ms

    def test_mc_samples_scale_latency(self, lenet_netlists):
        one = estimate(lenet_netlists["B"],
                       AcceleratorConfig(pe=8, mc_samples=1))
        three = estimate(lenet_netlists["B"],
                         AcceleratorConfig(pe=8, mc_samples=3))
        assert three.latency_ms > 2.5 * one.latency_ms

    def test_paper_latency_ordering(self, lenet_netlists):
        # Table 1 shape: B ~= M < R < K.
        cfg = AcceleratorConfig(pe=8)
        lat = {code: estimate(nl, cfg).latency_ms
               for code, nl in lenet_netlists.items()}
        assert lat["M"] <= lat["B"] < lat["R"] < lat["K"]
        assert lat["B"] == pytest.approx(lat["M"], rel=0.02)

    def test_higher_clock_lower_latency(self, lenet_netlists):
        base = estimate(lenet_netlists["B"],
                        AcceleratorConfig(pe=8, clock_mhz=100.0))
        fast = estimate(lenet_netlists["B"],
                        AcceleratorConfig(pe=8, clock_mhz=200.0))
        assert fast.latency_ms == pytest.approx(base.latency_ms / 2,
                                                rel=1e-6)

    def test_throughput_inverse_of_latency(self, lenet_netlists):
        perf = estimate(lenet_netlists["B"], AcceleratorConfig(pe=8))
        assert perf.throughput_images_per_s == pytest.approx(
            1e3 / perf.latency_ms)


class TestResources:
    def test_utilization_fractions(self, lenet_netlists):
        perf = estimate(lenet_netlists["B"], AcceleratorConfig(pe=8))
        util = perf.resources.utilization(XCKU115)
        for key in ("DSP", "BRAM", "FF", "LUT"):
            assert 0.0 < util[key] <= 1.0

    def test_resources_capped_at_device(self, lenet_netlists):
        perf = estimate(lenet_netlists["B"],
                        AcceleratorConfig(pe=100_000))
        assert perf.resources.dsp <= XCKU115.dsp
        assert perf.resources.ffs <= XCKU115.ffs

    def test_masksembles_uses_more_bram(self, lenet_netlists):
        cfg = AcceleratorConfig(pe=8)
        bram_m = estimate(lenet_netlists["M"], cfg).resources.bram36
        bram_b = estimate(lenet_netlists["B"], cfg).resources.bram36
        assert bram_m > bram_b

    def test_dynamic_dropout_uses_more_fabric(self, lenet_netlists):
        cfg = AcceleratorConfig(pe=8)
        ff_k = estimate(lenet_netlists["K"], cfg).resources.ffs
        ff_m = estimate(lenet_netlists["M"], cfg).resources.ffs
        assert ff_k > ff_m

    def test_comparator_ops_counted(self, lenet_netlists):
        cfg = AcceleratorConfig(pe=8)
        ops_k = estimate(lenet_netlists["K"],
                         cfg).comparator_ops_per_inference
        ops_m = estimate(lenet_netlists["M"],
                         cfg).comparator_ops_per_inference
        assert ops_k > 0
        assert ops_m == 0


def test_estimate_skips_residual_adds():
    # Adds are not modelled yet: a ResNet estimates exactly as its
    # netlist without them (no cycles, not counted as layers).
    netlist = trace_network(build_model("resnet18_slim", rng=0),
                            (3, 32, 32))
    chain = Netlist(layers=[l for l in netlist.layers
                            if l.kind != KIND_ADD],
                    input_shape=netlist.input_shape)
    assert len(chain.layers) < len(netlist.layers)
    config = AcceleratorConfig()
    assert estimate(netlist, config) == estimate(chain, config)
