"""Tests for network tracing."""

import numpy as np
import pytest

from repro import nn
from repro.hw import trace_network
from repro.hw.netlist import (
    KIND_ADD,
    KIND_CONV,
    KIND_DROPOUT,
    KIND_GPOOL,
    KIND_LINEAR,
    NETWORK_INPUT,
    trace_graph,
)
from repro.models import build_model
from repro.search import Supernet


class TestTraceLeNet:
    def test_layer_kinds_in_order(self):
        model = build_model("lenet", rng=0)
        netlist = trace_network(model, (1, 28, 28))
        kinds = [l.kind for l in netlist.layers]
        assert kinds[:4] == ["conv2d", "activation", "pooling", "dropout"]
        assert kinds[-1] == "dense"

    def test_shapes_propagate(self):
        model = build_model("lenet", rng=0)
        netlist = trace_network(model, (1, 28, 28))
        conv1 = netlist.layers[0]
        assert conv1.in_shape == (1, 28, 28)
        assert conv1.out_shape == (6, 28, 28)
        final = netlist.layers[-1]
        assert final.out_shape == (10,)

    def test_macs_match_layer_definitions(self):
        model = build_model("lenet", rng=0)
        netlist = trace_network(model, (1, 28, 28))
        conv1 = netlist.layers[0]
        assert conv1.macs == 28 * 28 * 6 * 1 * 25

    def test_total_params_close_to_model(self):
        model = build_model("lenet", rng=0)
        netlist = trace_network(model, (1, 28, 28))
        assert netlist.total_params == model.num_parameters()

    def test_dropout_slots_traced_once_each(self):
        model = build_model("lenet", rng=0)
        netlist = trace_network(model, (1, 28, 28))
        names = [l.slot_name for l in netlist.dropout_layers]
        assert names == ["conv1", "conv2", "fc"]

    def test_forward_restored_after_trace(self):
        model = build_model("lenet", rng=0)
        trace_network(model, (1, 28, 28))
        assert "forward" not in vars(model.conv1)
        x = np.zeros((1, 1, 28, 28), dtype=np.float32)
        assert model(x).shape == (1, 10)


class TestTraceWithConfig:
    def test_active_codes_recorded(self, fresh_supernet):
        fresh_supernet.set_config(("B", "K", "M"))
        netlist = trace_network(fresh_supernet.model, (1, 16, 16))
        codes = [l.dropout_code for l in netlist.dropout_layers]
        assert codes == ["B", "K", "M"]

    def test_inactive_slots_have_none(self):
        model = build_model("lenet_slim", image_size=16, rng=0)
        netlist = trace_network(model, (1, 16, 16))
        assert all(l.dropout_code is None for l in netlist.dropout_layers)

    def test_retrace_follows_config_change(self, fresh_supernet):
        fresh_supernet.set_config(("B", "B", "B"))
        a = trace_network(fresh_supernet.model, (1, 16, 16))
        fresh_supernet.set_config(("M", "M", "M"))
        b = trace_network(fresh_supernet.model, (1, 16, 16))
        assert [l.dropout_code for l in a.dropout_layers] == ["B", "B", "B"]
        assert [l.dropout_code for l in b.dropout_layers] == ["M", "M", "M"]


class TestTraceResNet:
    def test_residual_model_traces(self):
        model = build_model("resnet18_slim", rng=0)
        netlist = trace_network(model, (3, 32, 32))
        kinds = {l.kind for l in netlist.layers}
        assert KIND_CONV in kinds
        assert KIND_GPOOL in kinds
        assert KIND_LINEAR in kinds
        assert sum(1 for l in netlist.layers
                   if l.kind == KIND_DROPOUT) == 4

    def test_max_activation_elements(self):
        model = build_model("resnet18_slim", rng=0)
        netlist = trace_network(model, (3, 32, 32))
        # Largest tensor is the stage-1 feature map: 8 x 32 x 32.
        assert netlist.max_activation_elements >= 8 * 32 * 32


class TestTraceGraph:
    def test_chain_reads_the_previous_layer(self):
        model = build_model("lenet", rng=0)
        netlist, inputs = trace_graph(model, (1, 28, 28))
        names = [l.name for l in netlist.layers]
        assert inputs[names[0]] == (NETWORK_INPUT,)
        for previous, name in zip(names, names[1:]):
            assert inputs[name] == (previous,)

    def test_residual_adds_read_both_branches(self):
        model = build_model("resnet18_slim", rng=0)
        netlist, inputs = trace_graph(model, (3, 32, 32))
        adds = [l for l in netlist.layers if l.kind == KIND_ADD]
        assert len(adds) == 4                  # one per residual block
        for layer in adds:
            block = layer.name.rsplit(".", 1)[0]
            main, skip = inputs[layer.name]
            assert main == f"{block}.bn2"
            # The shortcut is the block input (the previous stage's
            # output) or its strided 1x1 downsample.
            assert skip == f"{block}.downsample.layers.1" \
                or not skip.startswith(block)
            assert layer.in_shape == layer.out_shape
            assert (layer.macs, layer.params) == (0, 0)

    def test_array_computed_outside_a_leaf_has_no_producer(self):
        class Doubling(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(4, 2, rng=0)

            def forward(self, x):
                return self.fc(x * 2)

        _, inputs = trace_graph(Doubling(), (4,))
        assert inputs == {"fc": (None,)}
