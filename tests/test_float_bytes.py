"""Byte-identity suite: the float engine against its frozen reference.

``im2col`` gathers small output maps through a flat index, batch norm
runs on flattened rows, and the Bernoulli, Block and Random
samplers build their masks without ``np.where`` or a divide-then-cast.
None of that may change a byte.  Each check runs the same computation
twice — once on the library, once inside
:func:`tests.oracles.reference_float_ops`, which swaps in the
straightforward forms kept verbatim as the reference — and compares
the bytes:

* ``mc_predict`` on ResNet-slim 16x16, with configurations that put
  each of B, R, K and M in every slot, at 180, 200, 64, 52, 8, 7 and 1
  rows, and over pass spans;
* ``mc_predict`` on LeNet 28x28;
* the ``SearchResult`` records and the evaluation-cache entries of a
  small two-worker ``resnet18_slim`` search (training included; forked
  workers inherit the reference).

A frozen reference rather than golden digests: a float32 digest can
change with the CPU a runner lands on (BLAS picks its kernels by CPU),
while both sides here run on the same BLAS.
"""

import json
import os

import numpy as np
import pytest

from repro import nn
from repro.api import (
    EvolutionSpec,
    ExperimentSpec,
    GenerateSpec,
    Runner,
    SearchSpec,
    TrainSpec,
)
from repro.bayes.mc import mc_predict, mc_predict_span
from repro.dropout import BernoulliDropout, BlockDropout, RandomDropout
from repro.hw.compile import kernel as kernel_module
from repro.models import build_model
from repro.search import Supernet
from tests.oracles import FLOAT_REFERENCES, reference_float_ops

#: Each of B, R, K and M in every ResNet slot (cyclic shifts).
RESNET_CONFIGS = [("B", "R", "K", "M"), ("R", "K", "M", "B"),
                  ("K", "M", "B", "R"), ("M", "B", "R", "K")]

#: LeNet 28x28 designs covering the four families in its conv slots.
LENET_CONFIGS = [("B", "K", "M"), ("R", "M", "B"), ("K", "B", "M")]


def randomize_batch_norms(model, seed):
    """Give every batch norm non-trivial statistics and affine terms."""
    rng = np.random.default_rng(seed)
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            c = module.num_features
            module.running_mean = rng.normal(0, 0.3, c).astype(np.float32)
            module.running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
            module.weight.data[...] = rng.uniform(0.5, 1.5, c)
            module.bias.data[...] = rng.normal(0, 0.2, c)


def supernet(name, image_size, seed):
    net = Supernet(build_model(name, image_size=image_size, rng=seed),
                   rng=seed + 1)
    randomize_batch_norms(net, seed + 2)
    net.eval()
    return net


def images(rows, shape, seed):
    return np.random.default_rng(seed).normal(
        size=(rows,) + shape).astype(np.float32)


def both(net, config, run):
    """``run()`` on the library, then on the reference, each from the
    same reseeded mask streams; the two results."""
    results = []
    for reference in (False, True):
        net.set_config(config)
        for index, layer in enumerate(net.active_dropout_layers()):
            layer.reseed(1000 + index)
        if reference:
            with reference_float_ops():
                results.append(run())
        else:
            results.append(run())
    return results


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestReferenceSwap:
    def test_every_binding_is_swapped_and_restored(self):
        library = [getattr(owner, name) for owner, name, _ in
                   FLOAT_REFERENCES]
        with reference_float_ops():
            for owner, name, reference in FLOAT_REFERENCES:
                assert getattr(owner, name) is reference
        assert [getattr(owner, name) for owner, name, _ in
                FLOAT_REFERENCES] == library
        owners = {owner for owner, _, _ in FLOAT_REFERENCES}
        assert {nn.BatchNorm2d, BernoulliDropout, BlockDropout,
                RandomDropout, kernel_module} <= owners


class TestResNetSlim:
    @pytest.fixture(scope="class")
    def net(self):
        return supernet("resnet18_slim", 16, seed=3)

    @pytest.mark.parametrize("config", RESNET_CONFIGS, ids="-".join)
    def test_mc_predict(self, net, config):
        for rows in (180, 200, 7, 1):
            x = images(rows, (3, 16, 16), seed=rows)
            got, want = both(net, config,
                             lambda: mc_predict(net, x, 3).probs)
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("config", RESNET_CONFIGS[:2], ids="-".join)
    def test_micro_batches(self, net, config):
        # The row counts of 180 and 200 rows cut into 64-row batches.
        for rows in (64, 52, 8):
            x = images(rows, (3, 16, 16), seed=rows + 1)
            got, want = both(net, config,
                             lambda: mc_predict(net, x, 3).probs)
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("config", RESNET_CONFIGS, ids="-".join)
    def test_pass_spans(self, net, config):
        x = images(7, (3, 16, 16), seed=11)
        for start, stop in ((0, 1), (1, 3), (2, 4)):
            got, want = both(net, config, lambda: mc_predict_span(
                net, x, 4, pass_start=start, pass_stop=stop))
            assert_same_bytes(got, want)


class TestLeNet:
    @pytest.fixture(scope="class")
    def net(self):
        return supernet("lenet", 28, seed=5)

    @pytest.mark.parametrize("config", LENET_CONFIGS, ids="-".join)
    def test_mc_predict(self, net, config):
        for rows in (32, 3):
            x = images(rows, (1, 28, 28), seed=rows)
            got, want = both(net, config,
                             lambda: mc_predict(net, x, 3).probs)
            assert_same_bytes(got, want)


def search_spec(name):
    return ExperimentSpec(
        name=name, model="resnet18_slim", dataset="cifar_like",
        image_size=16, dataset_size=120, ood_size=40, seed=29,
        num_workers=2, train=TrainSpec(epochs=1),
        search=SearchSpec(
            aims=("accuracy",),
            evolution=EvolutionSpec(population_size=4, generations=2)),
        generate=GenerateSpec(aim="accuracy"))


def cache_entries(root):
    """Every evaluation-cache entry under ``root``, by file name."""
    entries = {}
    for directory, _, files in os.walk(os.path.join(root, "eval_cache")):
        for name in files:
            with open(os.path.join(directory, name)) as handle:
                entries[name] = json.load(handle)
    return entries


class TestSearch:
    def test_records_and_cache_keys(self, tmp_path):
        stores = [str(tmp_path / "library"), str(tmp_path / "reference")]
        results = [Runner(search_spec("bytes"), store_root=stores[0]).run()]
        with reference_float_ops():
            results.append(Runner(search_spec("bytes"),
                                  store_root=stores[1]).run())
        got, want = (result.best("accuracy") for result in results)
        assert got.cache_misses > 0
        assert got.to_dict() == want.to_dict()
        assert [h.to_dict() for h in got.history] \
            == [h.to_dict() for h in want.history]
        library, reference = map(cache_entries, stores)
        assert library and library == reference
