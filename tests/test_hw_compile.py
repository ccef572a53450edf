"""Tests for the fixed-point compiler (:mod:`repro.hw.compile`).

Four contracts under test:

* **Integer arithmetic** — the rounding/saturation helpers agree with
  the float reference semantics of ``hw/fixed_point.py`` (round half
  to even, symmetric clipping), including negative values and the
  left-shift degenerate case.
* **Determinism / purity** — a compiled kernel's probabilities are a
  pure function of ``(deployment, images, T)``: byte-identical across
  fresh compiles and across a save/load round trip, and running the
  kernel never perturbs the float engines.
* **Fidelity** — on a trained slim-LeNet deployment the quantized path
  stays within the acceptance envelope of the float path (accuracy
  within 2 percentage points, recorded ECE/entropy/MI deltas).
* **Folded sweep** — ``predict`` runs all ``T`` passes in one sweep
  with every op on float64 codes where the overflow certificate allows
  it, and its bytes equal the per-pass all-``int64`` oracle
  (:func:`tests.oracles.fixed_predict_looped`) on LeNet 28x28 designs
  covering every dropout family, row windows and extreme pixels, in
  16-bit (all float64) and 28-bit (``int64`` GEMMs) deployments.
* **Record validation** — a saved kernel record with a malformed value,
  or one compiled from another deployment, is refused at load time
  with :class:`CompileError`, and ``compile_and_report`` recompiles a
  store that holds another deployment's kernel.
"""

import dataclasses
import gc
import hashlib
import os
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro import nn
from repro.analysis import certify_kernel
from repro.api import AcceleratorSpec, ExperimentSpec
from repro.hw import FixedPointFormat
from repro.hw.compile import kernel as kernel_module
from repro.hw.compile import (
    FIDELITY_ARTIFACT,
    KERNEL_ARTIFACT,
    KERNEL_TENSORS,
    MASK_FORMAT,
    CompileError,
    CompiledKernel,
    FidelityReport,
    compile_and_report,
    compile_deployment,
    load_kernel,
    measure_fidelity,
    save_kernel,
)
from repro.hw.compile.kernel import (
    FLOAT64_EXACT,
    LayerPlan,
    Program,
    recode,
    round_divide,
    round_shift,
    saturate,
)
from repro.hw.netlist import (
    KIND_ACT,
    KIND_CONV,
    KIND_DROPOUT,
    KIND_FLATTEN,
    KIND_IDENTITY,
    KIND_LINEAR,
    KIND_POOL,
    NETWORK_INPUT,
)
from repro.serve import Deployment
from tests.oracles import code_log, fixed_predict_looped, gemm_log

INPUT_SHAPE = (1, 16, 16)

#: Slim-LeNet configuration used throughout (fc slot admits B/M only).
CONFIG = ("B", "B", "M")


def make_spec(**overrides):
    base = dict(name="compile-test", model="lenet_slim",
                dataset="mnist_like", image_size=16, dataset_size=240,
                seed=21)
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def deployment():
    """Untrained slim-LeNet deployment (fast; predictions are noise)."""
    return Deployment.from_spec(make_spec(), INPUT_SHAPE, config=CONFIG)


@pytest.fixture(scope="module")
def kernel(deployment):
    return compile_deployment(deployment, calibration_rows=16)


@pytest.fixture(scope="module")
def trained_deployment():
    """A deployment trained on its own spec's data (fidelity target)."""
    from repro.api import TrainSpec
    from repro.api.stages import PipelineContext, SpecifyStage, TrainStage
    spec = make_spec(name="compile-fid", seed=23, dataset_size=600,
                     train=TrainSpec(epochs=6))
    ctx = PipelineContext(spec=spec)
    SpecifyStage().execute(ctx)
    TrainStage().execute(ctx)
    return Deployment.from_context(ctx, config=CONFIG)


def make_images(rows, seed=0, shape=INPUT_SHAPE):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows,) + shape).astype(np.float32)


#: LeNet 28x28 designs covering the B, R, K and M dropout families;
#: M-M-M draws row-broadcast mask plans in the conv and fc slots.
LENET_CONFIGS = (("B", "K", "M"), ("R", "R", "B"), ("M", "M", "M"))

LENET_SHAPE = (1, 28, 28)

#: sha256 of ``predict`` on the B-K-M LeNet at T=3 over
#: ``make_images(5, seed=5, shape=LENET_SHAPE)``, recorded before the
#: folded sweep and the float64 GEMMs existed, so the kernel and its
#: oracle cannot drift together.
GOLDEN_BKM_SHA256 = (
    "d511e174060c6d1cd3ceb9c87b5dca10df684408077f8d233e4f1148cf6f7a1e")


def lenet_kernel(config, accelerator=None):
    spec = ExperimentSpec(name="compile-fold", model="lenet",
                          dataset="mnist_like", image_size=28,
                          mc_samples=3, seed=2, accelerator=accelerator)
    deployment = Deployment.from_spec(spec, LENET_SHAPE, config=config)
    return compile_deployment(deployment, calibration_rows=16)


def gemm_plans(kernel):
    return [p for p in kernel.plans if p.kind in (KIND_CONV, KIND_LINEAR)]


def arithmetic_plans(kernel):
    return [p for p in kernel.plans
            if p.kind not in (KIND_FLATTEN, KIND_IDENTITY)]


def arithmetic_ops(kernel):
    return [op for op in kernel.ops if op.arithmetic]


def certified_dtype(layer):
    """The code dtype the certificate's bounds call for."""
    bound = max(layer.magnitude_bound, layer.post_shift_bound)
    return np.dtype(np.float64 if bound < FLOAT64_EXACT else np.int64)


def exact_recode(code, src, dst):
    """One ``src`` code quantized into ``dst`` in Python ints: rounded
    half to even (or shifted left), then saturated."""
    shift = src.fraction_bits - dst.fraction_bits
    if shift <= 0:
        value = code << -shift
    else:
        value, rest = divmod(code, 1 << shift)
        half = 1 << (shift - 1)
        value += rest > half or (rest == half and value % 2 == 1)
    lo, hi = -(1 << (dst.total_bits - 1)), (1 << (dst.total_bits - 1)) - 1
    return min(max(value, lo), hi)


def assert_matches_oracle(kernel, images, num_samples, **window):
    got = kernel.predict(images, num_samples, **window).probs
    want = fixed_predict_looped(kernel, images, num_samples,
                                **window).probs
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestIntegerHelpers:
    def test_round_shift_matches_half_even_reference(self):
        acc = np.arange(-70, 70, dtype=np.int64)
        got = round_shift(acc, 4)
        want = np.rint(acc / 16.0).astype(np.int64)
        np.testing.assert_array_equal(got, want)

    def test_round_shift_large_random_values(self):
        rng = np.random.default_rng(5)
        acc = rng.integers(-2**40, 2**40, size=512, dtype=np.int64)
        for shift in (1, 7, 13):
            got = round_shift(acc, shift)
            want = np.rint(acc / float(1 << shift)).astype(np.int64)
            np.testing.assert_array_equal(got, want)

    def test_round_shift_nonpositive_is_left_shift(self):
        acc = np.array([-3, 0, 5], dtype=np.int64)
        np.testing.assert_array_equal(round_shift(acc, 0), acc)
        np.testing.assert_array_equal(round_shift(acc, -2), acc * 4)

    def test_round_divide_matches_half_even_reference(self):
        acc = np.arange(-50, 50, dtype=np.int64)
        for divisor in (3, 4, 9):
            got = round_divide(acc, divisor)
            want = np.rint(acc / float(divisor)).astype(np.int64)
            np.testing.assert_array_equal(got, want)

    def test_saturate_clips_to_symmetric_range(self):
        fmt = FixedPointFormat(8, 4)
        codes = np.array([-1000, -128, -127, 0, 127, 1000], dtype=np.int64)
        got = saturate(codes, fmt)
        np.testing.assert_array_equal(
            got, np.array([-128, -128, -127, 0, 127, 127], dtype=np.int64))


class TestCompile:
    def test_plans_cover_every_traced_layer(self, kernel):
        from repro.hw import trace_network
        model = kernel.deployment.instantiate()
        netlist = trace_network(model.model, INPUT_SHAPE)
        assert [p.name for p in kernel.plans] \
            == [l.name for l in netlist.layers]
        assert [p.kind for p in kernel.plans] \
            == [l.kind for l in netlist.layers]

    def test_default_activation_format_is_paper_q78(self, kernel):
        # Untrained slim-LeNet activations fit the paper's <16,8>;
        # calibration must not widen what does not overflow.
        fmt = kernel.deployment.fixed_point
        assert (fmt.total_bits, fmt.fraction_bits) == (16, 8)
        assert all(p.in_format.total_bits == 16 for p in kernel.plans)

    def test_weights_prequantized_with_recorded_error(self, kernel):
        weighted = [p for p in kernel.plans if p.weight_format is not None]
        assert weighted, "expected conv/linear layers with weights"
        for plan in weighted:
            assert plan.weight_error is not None
            assert 0.0 <= plan.weight_error < 1e-2
            assert plan.tensors["weight"].dtype == np.int64

    def test_dropout_plans_follow_slot_order(self, kernel):
        slots = [p.slot_name for p in kernel.dropout_plans]
        assert slots == ["conv1", "conv2", "fc"]
        assert [p.dropout_code for p in kernel.dropout_plans] \
            == list(CONFIG)
        assert all(p.mask_format == MASK_FORMAT
                   for p in kernel.dropout_plans)

    def test_num_classes(self, kernel):
        assert kernel.num_classes == 10

    def test_duplicate_plan_names_rejected(self, kernel):
        plan = kernel.plans[0]
        with pytest.raises(CompileError, match="duplicate"):
            CompiledKernel(kernel.deployment, [plan, plan])

    def test_input_no_layer_produced_is_refused(self):
        # The container computes fc's input itself, so the graph has no
        # edge for it: the kernel refuses rather than guess.
        class Doubling(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(4, 2, rng=0)

            def forward(self, x):
                return self.fc(x * 2)

        fmt = FixedPointFormat(16, 8)
        deployment = SimpleNamespace(
            input_shape=(4,),
            instantiate=lambda: SimpleNamespace(model=Doubling(), slots=[]))
        plan = LayerPlan(name="fc", kind=KIND_LINEAR, in_shape=(4,),
                         out_shape=(2,), in_format=fmt, out_format=fmt,
                         weight_format=fmt,
                         tensors={"weight": np.ones((2, 4), np.int64)})
        with pytest.raises(CompileError, match="no traced layer produced"):
            CompiledKernel(deployment, [plan])

    def test_no_module_forward_is_patched(self):
        # The kernel runs its own program; no module of the compiler
        # reroutes a layer's forward.
        import repro.hw.compile as package
        root = os.path.dirname(package.__file__)
        for name in sorted(os.listdir(root)):
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as handle:
                    assert ".forward = " not in handle.read(), name


class TestOverrides:
    def test_override_changes_output_format(self, deployment, kernel):
        name = kernel.plans[0].name
        fmt = FixedPointFormat(16, 6)
        overridden = compile_deployment(
            deployment, calibration_rows=16, overrides={name: fmt})
        assert overridden.plans[0].out_format == fmt
        assert kernel.plans[0].out_format != fmt

    def test_unknown_layer_name_rejected(self, deployment):
        with pytest.raises(CompileError, match="unknown layers"):
            compile_deployment(
                deployment, calibration_rows=16,
                overrides={"nope": FixedPointFormat(16, 8)})


class TestDeterminism:
    def test_repeat_predict_is_byte_identical(self, kernel):
        images = make_images(6)
        first = kernel.predict(images, num_samples=3)
        second = kernel.predict(images, num_samples=3)
        assert first.probs.tobytes() == second.probs.tobytes()

    def test_fresh_compile_is_byte_identical(self, deployment, kernel):
        images = make_images(5, seed=1)
        other = compile_deployment(deployment, calibration_rows=16)
        assert kernel.predict(images, num_samples=3).probs.tobytes() \
            == other.predict(images, num_samples=3).probs.tobytes()

    def test_probabilities_are_normalized(self, kernel):
        pred = kernel.predict(make_images(4), num_samples=3)
        assert pred.probs.shape == (3, 4, 10)
        np.testing.assert_allclose(pred.probs.sum(axis=-1), 1.0,
                                   atol=1e-5)

    def test_kernel_never_perturbs_float_engines(self, deployment, kernel):
        # Purity: a float prediction taken before and after running the
        # kernel must be byte-identical — the kernel replays the mask
        # contract on its own dropout layers, never the caller's.
        images = make_images(4, seed=2)
        model = deployment.instantiate()
        before = deployment.predict(model, images, num_samples=3)
        kernel.predict(images, num_samples=3)
        after = deployment.predict(model, images, num_samples=3)
        assert before.probs.tobytes() == after.probs.tobytes()

    def test_rejects_wrong_input_shape(self, kernel):
        with pytest.raises(ValueError, match="shape"):
            kernel.predict(np.zeros((2, 1, 8, 8), dtype=np.float32))

    def test_dropped_kernel_is_freed_without_the_cycle_collector(
            self, kernel):
        # Nothing the kernel holds (its program's ops, its slot layers,
        # its mask codes) may hold the kernel, or dropping it leaves its
        # float64 tensor copies and mask codes to the cycle collector.
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        fresh.predict(make_images(2), num_samples=2)
        ref = weakref.ref(fresh)
        gc.disable()
        try:
            del fresh
            assert ref() is None
        finally:
            gc.enable()

    def test_built_kernel_frees_the_model_it_traced(self, kernel,
                                                     tmp_path):
        # A kernel keeps its slots' dropout layers, never the model it
        # instantiated to trace: compiled or loaded, that model is gone
        # once the kernel is built.
        from repro.api import ArtifactStore
        store = ArtifactStore(str(tmp_path / "compiled"))
        save_kernel(kernel, store)
        traced = []
        trace = kernel_module.trace_graph

        def spy(model, input_shape):
            traced.append(weakref.ref(model))
            return trace(model, input_shape)

        with mock.patch.object(kernel_module, "trace_graph", spy):
            built = [compile_deployment(kernel.deployment,
                                        calibration_rows=8),
                     load_kernel(store)]
        gc.collect()
        assert len(traced) == len(built)
        assert all(ref() is None for ref in traced)
        for each in built:
            assert list(each.slot_layers) == ["conv1", "conv2", "fc"]


class TestPersistence:
    def test_save_load_round_trip_byte_identical(self, kernel, tmp_path):
        from repro.api import ArtifactStore
        store = ArtifactStore(str(tmp_path / "compiled"))
        save_kernel(kernel, store)
        assert store.has(KERNEL_ARTIFACT)
        assert store.has_state(KERNEL_TENSORS)
        loaded = load_kernel(store)
        images = make_images(5, seed=3)
        assert loaded.predict(images, num_samples=3).probs.tobytes() \
            == kernel.predict(images, num_samples=3).probs.tobytes()

    def test_save_colocates_deployment(self, kernel, tmp_path):
        store_root = str(tmp_path / "compiled")
        from repro.api import ArtifactStore
        save_kernel(kernel, ArtifactStore(store_root))
        # The directory must be self-contained: loadable with no
        # deployment in hand.
        reloaded = Deployment.load(store_root)
        assert reloaded.config == kernel.deployment.config

    def test_compile_and_report_resumes(self, deployment, tmp_path):
        from repro.api import ArtifactStore
        store = ArtifactStore(str(tmp_path / "compiled"))
        kernel, report, _ = compile_and_report(
            deployment, store, calibration_rows=16, fidelity_rows=24)
        assert store.has(FIDELITY_ARTIFACT)
        again, report2, _ = compile_and_report(
            deployment, store, calibration_rows=16, fidelity_rows=24)
        assert report2.to_dict() == report.to_dict()
        images = make_images(4, seed=4)
        assert again.predict(images, num_samples=3).probs.tobytes() \
            == kernel.predict(images, num_samples=3).probs.tobytes()


#: Requests that differ from ``REQUEST`` in one field each.
REQUEST = dict(calibration_rows=16, fidelity_rows=24)
REQUEST_CHANGES = {
    "calibration-rows": dict(calibration_rows=4),
    "fidelity-rows": dict(fidelity_rows=16),
    "samples": dict(num_samples=1),
    "overrides": dict(overrides={"relu1": FixedPointFormat(16, 8)}),
}


class TestCompileRequest:
    """A stored compile resumes only under the request it answers."""

    @staticmethod
    def compiles(deployment, store, **request):
        """How many lowerings one ``compile_and_report`` call ran."""
        from repro.hw.compile import compiler
        with mock.patch.object(compiler, "compile_deployment",
                               wraps=compiler.compile_deployment) as spy:
            _, report, _ = compile_and_report(deployment, store, **request)
        return spy.call_count, report

    @pytest.fixture
    def store(self, deployment, tmp_path):
        from repro.api import ArtifactStore
        store = ArtifactStore(str(tmp_path / "compiled"))
        assert self.compiles(deployment, store, **REQUEST)[0] == 1
        return store

    def test_records_the_resolved_request(self, deployment, store):
        from repro.hw.compile import REQUEST_ARTIFACT
        assert store.load_json(REQUEST_ARTIFACT) == {
            "calibration_rows": 16, "fidelity_rows": 24,
            "num_samples": deployment.spec.mc_samples, "overrides": {}}

    def test_same_request_resumes(self, deployment, store):
        # The spec's T given explicitly is the same request.
        assert self.compiles(deployment, store, **REQUEST)[0] == 0
        assert self.compiles(deployment, store, num_samples=3,
                             **REQUEST)[0] == 0

    @pytest.mark.parametrize("change", sorted(REQUEST_CHANGES))
    def test_new_request_recompiles_then_resumes(self, deployment, store,
                                                 tmp_path, change):
        from repro.api import ArtifactStore
        request = dict(REQUEST, **REQUEST_CHANGES[change])
        count, report = self.compiles(deployment, store, **request)
        assert count == 1
        assert report.rows == request["fidelity_rows"]
        assert report.num_samples == request.get("num_samples", 3)
        assert self.compiles(deployment, store, **request) == (0, report)
        # The recompiled store holds what a fresh store would.
        fresh = ArtifactStore(str(tmp_path / "fresh"))
        compile_and_report(deployment, fresh, **request)
        for name in sorted(os.listdir(fresh.root)):
            with open(os.path.join(fresh.root, name), "rb") as want, \
                    open(os.path.join(store.root, name), "rb") as got:
                assert got.read() == want.read(), name

    def test_store_without_request_recompiles_once(self, deployment,
                                                   store):
        from repro.hw.compile import REQUEST_ARTIFACT
        assert store.delete_json(REQUEST_ARTIFACT)
        assert self.compiles(deployment, store, **REQUEST)[0] == 1
        assert self.compiles(deployment, store, **REQUEST)[0] == 0

    def test_torn_compile_never_resumes(self, deployment, store):
        # A recompile that dies after writing its kernel leaves no
        # request, so not even the old one resumes the mixed store.
        save_json = type(store).save_json

        def fail_on_report(self, name, payload):
            if name == FIDELITY_ARTIFACT:
                raise OSError("disk full")
            return save_json(self, name, payload)

        with mock.patch.object(type(store), "save_json", fail_on_report):
            with pytest.raises(OSError, match="disk full"):
                compile_and_report(deployment, store,
                                   **dict(REQUEST, calibration_rows=4))
        assert self.compiles(deployment, store, **REQUEST)[0] == 1


def lenet_slim(seed, config):
    """An untrained slim-LeNet deployment at spec seed ``seed``."""
    return Deployment.from_spec(make_spec(seed=seed), INPUT_SHAPE,
                                config=config)


class TestDeploymentBinding:
    """A stored kernel belongs to the deployment it was compiled from."""

    @pytest.fixture(scope="class")
    def pair(self):
        return (lenet_slim(7, ("B", "K", "M")),
                lenet_slim(8, ("M", "M", "B")))

    def test_another_deployment_recompiles_the_store(self, pair, tmp_path):
        from repro.api import ArtifactStore
        first, second = pair
        store = ArtifactStore(str(tmp_path / "compiled"))
        request = dict(calibration_rows=8, fidelity_rows=8)
        compile_and_report(first, store, **request)
        kernel, _, _ = compile_and_report(second, store, **request)
        assert [plan.dropout_code for plan in kernel.plans
                if plan.kind == KIND_DROPOUT] == ["M", "M", "B"]
        fresh = compile_deployment(second, calibration_rows=8)
        images = make_images(4, seed=3)
        assert (kernel.predict(images, 3).probs.tobytes()
                == fresh.predict(images, 3).probs.tobytes())
        # The store's deployment artifacts are the second's too.
        assert Deployment.load(store.root).config == ("M", "M", "B")
        assert (load_kernel(store).deployment.fingerprint()
                == second.fingerprint())

    def test_load_refuses_another_deployments_kernel(self, pair, tmp_path):
        from repro.api import ArtifactStore
        first, second = pair
        store = ArtifactStore(str(tmp_path / "compiled"))
        save_kernel(compile_deployment(first, calibration_rows=8), store)
        assert store.load_json(KERNEL_ARTIFACT)["deployment_fingerprint"] \
            == first.fingerprint()
        with pytest.raises(CompileError, match=(
                f"^kernel.deployment_fingerprint {first.fingerprint()} is "
                f"not the deployment's {second.fingerprint()}: ")):
            load_kernel(store, second)
        # A record without the fingerprint is refused the same way.
        record = store.load_json(KERNEL_ARTIFACT)
        del record["deployment_fingerprint"]
        store.save_json(KERNEL_ARTIFACT, record)
        with pytest.raises(CompileError, match=(
                f"^kernel.deployment_fingerprint None is not the "
                f"deployment's {first.fingerprint()}: ")):
            load_kernel(store)


def _layer(record, kind):
    return next(entry for entry in record["layers"]
                if entry["kind"] == kind)


def _set(kind, key, value):
    def edit(record):
        _layer(record, kind)[key] = value
    return edit


def _set_attr(kind, key, value):
    def edit(record):
        _layer(record, kind)["attrs"][key] = value
    return edit


#: Malformed kernel-record edits that loaded silently (or failed only at
#: the first predict) before load-time validation.
RECORD_PROBES = {
    "bool-format": _set(KIND_CONV, "in_format", [True, 0]),
    "string-format": _set(KIND_CONV, "in_format", ["16", "8"]),
    "float-format": _set(KIND_CONV, "out_format", [16.9, 8.2]),
    "short-format": _set(KIND_CONV, "out_format", [16]),
    "invalid-format": _set(KIND_CONV, "out_format", [8, 8]),
    "string-kernel-size": _set_attr(KIND_CONV, "kernel_size", "5"),
    "float-kernel-size": _set_attr(KIND_CONV, "kernel_size", 5.0),
    "zero-stride": _set_attr(KIND_CONV, "stride", 0),
    "bool-stride": _set_attr(KIND_CONV, "stride", True),
    "string-weight-error": _set(KIND_CONV, "weight_error", "0.1"),
    "nan-weight-error": _set(KIND_CONV, "weight_error", float("nan")),
    "huge-weight-error": _set(KIND_CONV, "weight_error", 10 ** 400),
    "string-shape": _set(KIND_CONV, "in_shape", ["1", "16", "16"]),
    "bool-version": lambda record: record.update(kernel_version=True),
    "no-layers": lambda record: record.pop("layers"),
    "non-object-layer": lambda record: record["layers"].__setitem__(0, 3),
    "unknown-kind": _set(KIND_ACT, "kind", "softplus"),
    "list-kind": _set(KIND_ACT, "kind", ["activation"]),
    "null-attrs": _set(KIND_ACT, "attrs", None),
    "string-average": _set_attr(KIND_POOL, "average", "false"),
    "untensored-conv": _set(KIND_CONV, "name", "renamed"),
    "dropout-without-mask-format": _set(KIND_DROPOUT, "mask_format", None),
    "numeric-slot-name": _set(KIND_DROPOUT, "slot_name", 1),
    "rescaling-relu": _set(KIND_ACT, "out_format", [16, 6]),
    "all-padding-max-pool": _set_attr(KIND_POOL, "padding", 2),
}


class TestRecordValidation:
    @pytest.fixture
    def store(self, kernel, tmp_path):
        from repro.api import ArtifactStore
        store = ArtifactStore(str(tmp_path / "compiled"))
        save_kernel(kernel, store)
        return store

    @pytest.mark.parametrize("probe", sorted(RECORD_PROBES))
    def test_malformed_record_is_refused_at_load(self, store, probe):
        record = store.load_json(KERNEL_ARTIFACT)
        RECORD_PROBES[probe](record)
        store.save_json(KERNEL_ARTIFACT, record)
        with pytest.raises(CompileError):
            load_kernel(store)


class TestFidelity:
    @pytest.fixture(scope="class")
    def report(self, trained_deployment):
        kernel = compile_deployment(trained_deployment,
                                    calibration_rows=32)
        return measure_fidelity(kernel, rows=96)

    def test_accuracy_within_two_points(self, report):
        # Acceptance criterion: quantization costs at most 2pp accuracy
        # on the trained LeNet deployment.
        assert abs(report.accuracy_delta) <= 0.02

    def test_predictions_mostly_agree(self, report):
        assert report.agreement >= 0.95
        assert report.mean_probs_delta_max <= 0.05

    def test_uncertainty_deltas_recorded_and_small(self, report):
        assert 0.0 <= report.entropy_delta_mean <= report.entropy_delta_max
        assert report.entropy_delta_max <= 0.2
        assert 0.0 <= report.mi_delta_mean <= report.mi_delta_max
        assert np.isfinite(report.ece_delta)
        assert np.isfinite(report.nll_delta)

    def test_per_layer_rows_present(self, report):
        assert report.layers
        names = {row.name for row in report.layers}
        assert any(row.weight_error is not None for row in report.layers)
        assert len(names) == len(report.layers)

    def test_round_trips_through_dict(self, report):
        clone = FidelityReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()

    def test_render_mentions_headline_metrics(self, report):
        text = report.render()
        assert "accuracy" in text
        assert "ap_fixed<" in text


class TestFoldedSweep:
    @pytest.fixture(scope="class", params=LENET_CONFIGS, ids="-".join)
    def lenet28(self, request):
        return lenet_kernel(request.param)

    @pytest.mark.parametrize("num_samples", [1, 3, 5, 16])
    @pytest.mark.parametrize("rows", [1, 5, 30])
    def test_matches_looped_oracle(self, lenet28, rows, num_samples):
        images = make_images(rows, seed=rows, shape=LENET_SHAPE)
        assert_matches_oracle(lenet28, images, num_samples)

    def test_row_window_matches_oracle_and_full_batch(self, lenet28):
        images = make_images(12, seed=9, shape=LENET_SHAPE)
        window = images[4:9]
        assert_matches_oracle(lenet28, window, 3, total_rows=12,
                              row_start=4)
        full = lenet28.predict(images, 3).probs
        part = lenet28.predict(window, 3, total_rows=12,
                               row_start=4).probs
        assert part.tobytes() == np.ascontiguousarray(
            full[:, 4:9]).tobytes()

    @pytest.mark.parametrize("num_samples", [1, 16])
    def test_row_window_at_one_and_sixteen_passes(self, lenet28,
                                                  num_samples):
        images = make_images(12, seed=10, shape=LENET_SHAPE)
        assert_matches_oracle(lenet28, images[2:7], num_samples,
                              total_rows=12, row_start=2)

    def test_extreme_pixels_match_oracle(self, lenet28):
        images = make_images(4, seed=4, shape=LENET_SHAPE)
        images[0, 0, :3, :3] = 1e4
        images[1, 0, :3, :3] = -1e4
        images[2, 0, 5, 5] = np.inf
        images[3, 0, 6, 6] = -np.inf
        assert_matches_oracle(lenet28, images, 3)

    def test_one_float64_gemm_per_layer(self, lenet28):
        # The certificate bounds every 16-bit layer far below 2**53, so
        # each conv/dense GEMM runs once, on float64: the prefix (conv1)
        # on the request rows, the suffix on all T passes at once.
        images = make_images(5, seed=1, shape=LENET_SHAPE)
        log = gemm_log(lambda: lenet28.predict(images, 3))
        assert len(log) == len(gemm_plans(lenet28))
        assert {dtype for dtype, _ in log} == {np.dtype(np.float64)}
        assert [rows for _, rows in log] == [5] + [15] * (len(log) - 1)

    def test_nan_pixel_is_refused(self, lenet28):
        images = make_images(3, seed=3, shape=LENET_SHAPE)
        images[1, 0, 7, 7] = np.nan
        with pytest.raises(ValueError, match="cannot quantize NaN"):
            lenet28.predict(images, 3)

    def test_every_op_runs_on_float64(self, lenet28):
        # The benchmark's 16-bit deployment: every op's bounds sit below
        # 2**53, so every mask plan and every step's codes are float64.
        # A fresh kernel pins the miss, which quantizes each slot's
        # masks before the steps run; the hit runs the steps only.
        fresh = CompiledKernel(lenet28.deployment, lenet28.plans)
        images = make_images(5, seed=2, shape=LENET_SHAPE)
        miss = code_log(lambda: fresh.predict(images, 3))
        hit = code_log(lambda: fresh.predict(images, 3))
        ops = arithmetic_ops(fresh)
        assert len(miss) == len(lenet28.dropout_plans) + len(ops)
        assert len(hit) == len(ops)
        assert set(miss) == set(hit) == {np.dtype(np.float64)}
        assert {certified_dtype(layer) for layer
                in certify_kernel(lenet28).layers if layer.arithmetic} \
            == {np.dtype(np.float64)}

    def test_relus_and_pools_fold_into_their_producers(self, lenet28):
        # Every conv and dense step carries the ReLU after it, every
        # conv step its max pool too; each plan is in exactly one step.
        steps = [op.plans for op in lenet28.ops]
        assert steps[:3] == [("conv1", "relu1", "pool1"), ("slot1",),
                             ("conv2", "relu2", "pool2")]
        assert ("fc1", "relu3") in steps and ("fc2", "relu4") in steps
        assert [name for step in steps for name in step] \
            == [plan.name for plan in lenet28.plans]

    def test_no_active_slot_broadcasts_one_pass(self, kernel):
        # With no slot drawing masks every dropout op is the identity,
        # so the sweep stays at the request rows and its single pass is
        # every pass.
        images = make_images(4, seed=6)
        fresh = CompiledKernel(kernel.deployment, kernel.plans)
        with mock.patch.object(fresh, "slot_layers", {}):
            single = fresh.predict(images, 1).probs
            probs = fresh.predict(images, 3).probs
        assert probs.shape == (3, 4, 10)
        for t in range(3):
            assert probs[t].tobytes() == single[0].tobytes()

    def test_golden_digest(self):
        kernel = lenet_kernel(("B", "K", "M"))
        images = make_images(5, seed=5, shape=LENET_SHAPE)
        probs = kernel.predict(images, 3).probs
        assert hashlib.sha256(probs.tobytes()).hexdigest() \
            == GOLDEN_BKM_SHA256


class TestWideDeployment:
    """A 28-bit deployment certifies saturation-only at about 2**59:
    every conv/dense layer sits above the float64 cut and keeps its
    ``int64`` GEMM."""

    @pytest.fixture(scope="class")
    def wide(self):
        return lenet_kernel(
            ("B", "K", "M"),
            accelerator=AcceleratorSpec(total_bits=28, fraction_bits=14))

    def test_bounds_sit_above_the_float64_cut(self, wide):
        certificate = certify_kernel(wide)
        assert not certificate.wrap_possible
        names = {p.name for p in gemm_plans(wide)}
        bounds = [layer.magnitude_bound for layer in certificate.layers
                  if layer.name in names]
        assert len(bounds) == len(names)
        assert min(bounds) >= FLOAT64_EXACT

    def test_runs_int64_gemms(self, wide):
        images = make_images(5, seed=1, shape=LENET_SHAPE)
        log = gemm_log(lambda: wide.predict(images, 3))
        assert len(log) == len(gemm_plans(wide))
        assert {dtype for dtype, _ in log} == {np.dtype(np.int64)}

    @pytest.mark.parametrize("rows", [1, 5])
    def test_matches_looped_oracle(self, wide, rows):
        images = make_images(rows, seed=rows, shape=LENET_SHAPE)
        assert_matches_oracle(wide, images, 3)
        images[0, 0, 0, 0] = 1e4
        assert_matches_oracle(wide, images, 3)

    def test_int64_exactly_where_the_bound_reaches_2_53(self, wide):
        # On a miss (pinned by a fresh kernel) masks are quantized first
        # (slot order), then each step runs in execution order: every
        # step computes on the dtype its first plan's bounds call for —
        # int64 conv/dense (their fused ReLU and pool included), float64
        # elsewhere.  The hit runs the steps only.
        layers = {layer.name: layer for layer in certify_kernel(wide).layers}
        masks = [certified_dtype(layers[p.name]) for p in wide.dropout_plans]
        fresh = CompiledKernel(wide.deployment, wide.plans)
        ops = [certified_dtype(layers[op.plans[0]])
               for op in arithmetic_ops(fresh)]
        assert set(masks + ops) == {np.dtype(np.int64), np.dtype(np.float64)}
        images = make_images(3, seed=8, shape=LENET_SHAPE)
        assert code_log(lambda: fresh.predict(images, 3)) == masks + ops
        assert code_log(lambda: fresh.predict(images, 3)) == ops

    def test_nan_pixel_is_refused(self, wide):
        images = make_images(2, seed=2, shape=LENET_SHAPE)
        images[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="cannot quantize NaN"):
            wide.predict(images, 3)

    def test_save_load_round_trip(self, wide, tmp_path):
        from repro.api import ArtifactStore
        store = ArtifactStore(str(tmp_path / "wide"))
        save_kernel(wide, store)
        images = make_images(4, seed=4, shape=LENET_SHAPE)
        assert load_kernel(store).predict(images, 3).probs.tobytes() \
            == wide.predict(images, 3).probs.tobytes()


class TestCodesBetweenPlans:
    def test_codes_above_2_24_cross_layers_unchanged(self):
        # A <28,14> identity dense chain: the producer emits codes a
        # float32 carrier would round (hi - 1 -> hi, lo + 1 -> lo,
        # 2**24 + 1 -> 2**24); the program hands the consumer those very
        # codes (no recode, no quantize) and every code comes out
        # unchanged.
        fmt = FixedPointFormat(total_bits=28, fraction_bits=14)
        hi, lo = (1 << 27) - 1, -(1 << 27)
        codes = np.array([[hi - 1, lo + 1, (1 << 24) + 1, -(1 << 24) - 1]],
                         dtype=np.int64)
        chain = [LayerPlan(
            name=f"fc{k}", kind=KIND_LINEAR, in_shape=(4,), out_shape=(4,),
            in_format=fmt, out_format=fmt,
            weight_format=FixedPointFormat(total_bits=2, fraction_bits=0),
            tensors={"weight": np.eye(4, dtype=np.int64)},
            inputs=(NETWORK_INPUT,) if k == 0 else ("fc0",))
            for k in range(2)]
        program = Program(chain,
                          certify_kernel(SimpleNamespace(plans=chain)))
        assert [op.args for op in program.ops] == [(0,), (1,)]
        assert program.ops[1].reads == (None,)
        out = program.run(codes * 2.0 ** -fmt.fraction_bits, {})
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, codes)


class TestFormatChanges:
    """Where a plan's input format differs from its producer's output
    format, the step recodes the codes; the bytes still equal the
    oracle, which quantizes the exact grid values instead."""

    @pytest.mark.parametrize("override", [
        # conv1 emits 2 fraction bits fewer than relu1 reads (a left
        # shift), fc1 2 more than relu3 reads (a rounding shift).
        {"conv1": FixedPointFormat(16, 6)},
        {"fc1": FixedPointFormat(16, 10)},
        {"conv2": FixedPointFormat(16, 4), "fc2": FixedPointFormat(16, 12)},
    ], ids=["widen", "narrow", "both"])
    def test_recoded_steps_match_oracle(self, override):
        spec = ExperimentSpec(name="compile-fold", model="lenet",
                              dataset="mnist_like", image_size=28,
                              mc_samples=3, seed=2)
        deployment = Deployment.from_spec(spec, LENET_SHAPE,
                                          config=("B", "K", "M"))
        kernel = compile_deployment(deployment, calibration_rows=16,
                                    overrides=override)
        for name in override:
            (step,) = [op for op in kernel.ops if op.plans[0] == name]
            assert len(step.plans) == 1       # no fusion across formats
        images = make_images(6, seed=3, shape=LENET_SHAPE) * 4
        for num_samples in (1, 3):
            assert_matches_oracle(kernel, images, num_samples)

    def test_recode_equals_quantizing_the_exact_values(self):
        rng = np.random.default_rng(4)
        for src_bits, dst_bits in [(16, 16), (28, 12), (12, 28), (63, 40),
                                   (40, 63)]:
            for _ in range(20):
                src = FixedPointFormat(src_bits,
                                       int(rng.integers(0, src_bits)))
                dst = FixedPointFormat(dst_bits,
                                       int(rng.integers(0, dst_bits)))
                lo, hi = -(1 << (src_bits - 1)), (1 << (src_bits - 1)) - 1
                codes = np.concatenate([
                    np.array([lo, hi, 0, -1, 1], dtype=np.int64),
                    rng.integers(lo, hi, size=11, dtype=np.int64)])
                got = recode(codes, src, dst)
                assert got.tolist() == [exact_recode(c, src, dst)
                                        for c in codes.tolist()]


class TestRescaleFreeOverrides:
    """An override on a layer that never rescales (a ReLU, a pool) is its
    input format too: the producer's edge recodes into it, so the kernel
    stays as near float as without the override, and equals the oracle.
    Before, such a layer saturated its input codes unshifted, which
    rescaled its output by a power of two (0.2-0.3 off float here)."""

    @pytest.fixture(scope="class")
    def lenet28(self):
        spec = ExperimentSpec(name="compile-fold", model="lenet",
                              dataset="mnist_like", image_size=28,
                              mc_samples=3, seed=2)
        deployment = Deployment.from_spec(spec, LENET_SHAPE,
                                          config=("B", "K", "M"))
        images = make_images(16, seed=0, shape=LENET_SHAPE)
        floats = deployment.predict(deployment.instantiate(), images,
                                    num_samples=3).mean_probs
        return deployment, images, floats

    @pytest.mark.parametrize("name, fmt", [
        ("relu3", FixedPointFormat(16, 6)),
        ("pool1", FixedPointFormat(16, 6)),
        ("relu1", FixedPointFormat(16, 10)),
    ], ids=["relu3", "pool1", "relu1"])
    def test_lands_near_float_and_equals_oracle(self, lenet28, name, fmt):
        deployment, images, floats = lenet28
        kernel = compile_deployment(deployment, calibration_rows=16,
                                    overrides={name: fmt})
        (plan,) = [p for p in kernel.plans if p.name == name]
        assert plan.in_format == plan.out_format == fmt
        fixed = kernel.predict(images, 3).mean_probs
        assert np.abs(fixed - floats).max() < 0.01
        for num_samples in (1, 3):
            assert_matches_oracle(kernel, images, num_samples)

    def test_plan_that_would_rescale_is_refused(self, kernel):
        plans = [dataclasses.replace(p) for p in kernel.plans]
        relu = next(p for p in plans if p.kind == KIND_ACT)
        relu.out_format = FixedPointFormat(
            16, relu.in_format.fraction_bits - 2)
        with pytest.raises(CompileError, match=f"{relu.name}.*does not "
                                               f"rescale"):
            CompiledKernel(kernel.deployment, plans)
