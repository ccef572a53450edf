"""Overflow-certificate tests: soundness plumbing, persistence, gates.

Three layers of coverage:

* crafted plans — a deliberately overflowing linear plan is flagged
  ``wrap-possible`` while benign plans certify ``saturation-only``;
* the compiled zoo — every paper model (MLP, LeNet, VGG-11, ResNet-18
  slim variants) certifies clean, which is the repo's standing claim
  that the widened int64 accumulators can never wrap for *any*
  representable input;
* the artifact gates — ``compile_and_report`` writes the kernel's
  certificate on every call, refusing wrap-possible kernels fresh or
  resumed unless ``allow_unsafe``, so a resume rewrites an edited
  copy; ``verify_kernel`` re-derives it from bytes and detects
  tampering/staleness, and the certificate's ``accum_formats()`` are
  the HLS emitter's ``accum_t`` typedefs;
* one certificate per kernel — ``certify_plan`` runs exactly once per
  plan through a compile, a resume and a fixed-backend service's
  set-up and first predict, and the service refuses a handed
  wrap-possible kernel as it refuses an inline one.
"""

import asyncio
import shutil
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.analysis import certify as certify_module
from repro.analysis.certify import (
    CERTIFICATE_ARTIFACT,
    VERDICT_SATURATION_ONLY,
    VERDICT_WRAP_POSSIBLE,
    certify_kernel,
    certify_plan,
    kernel_fingerprint,
    verify_kernel,
)
from repro.api import ArtifactStore, ExperimentSpec
from repro.cli import main
from repro.hw.compile import CompileError, compile_deployment, compiler
from repro.hw.compile.compiler import compile_and_report
from repro.hw.compile.kernel import LayerPlan
from repro.hw.fixed_point import FixedPointFormat
from repro.hw.netlist import KIND_LINEAR
from repro.serve import Deployment, UncertaintyService
from repro.serve.replicas import ReplicaPool

from tests.test_hw_compile_zoo import ZOO

FMT = FixedPointFormat(total_bits=16, fraction_bits=8)


def linear_plan(weight, *, in_format=FMT, out_format=FMT,
                weight_format=FMT, bias=None) -> LayerPlan:
    weight = np.asarray(weight, dtype=np.int64)
    tensors = {"weight": weight}
    if bias is not None:
        tensors["bias"] = np.asarray(bias, dtype=np.int64)
    return LayerPlan(
        name="fc", kind=KIND_LINEAR,
        in_shape=(weight.shape[1],), out_shape=(weight.shape[0],),
        in_format=in_format, out_format=out_format,
        weight_format=weight_format, tensors=tensors)


def small_spec(model="lenet_slim", dataset="mnist_like", size=16):
    return ExperimentSpec(
        name=f"certify-{model}", model=model, dataset=dataset,
        image_size=size, dataset_size=120, seed=31)


@pytest.fixture(scope="module")
def lenet_deployment():
    return Deployment.from_spec(small_spec(), (1, 16, 16),
                                config=("B", "B", "M"))


#: A conv1 output format so fine that requantize's left shift wraps
#: int64: the compile's certificate reads ``wrap-possible``.
UNSAFE = {"conv1": FixedPointFormat(60, 59)}

#: The compile request of every artifact-gate store.
REQUEST = {"calibration_rows": 8, "fidelity_rows": 4, "num_samples": 2}

#: The one gate's message, as every refusal prints it.
GATE_MESSAGE = "overflow certificate is wrap-possible for layers ['conv1']"


# ----------------------------------------------------------------------
# Crafted plans: the overflow fixture and its benign twin
# ----------------------------------------------------------------------
class TestCraftedPlans:
    def test_benign_linear_is_saturation_only(self):
        cert = certify_plan(linear_plan(np.full((4, 64), 100)))
        assert not cert.wrap_possible
        assert cert.headroom_bits > 0
        # 64 weights of code 100 against |x| <= 2**15: exact bound.
        assert cert.magnitude_bound == 64 * 100 * (1 << 15)
        assert cert.accum_hi == 64 * 100 * ((1 << 15) - 1)
        assert cert.accum_lo == -64 * 100 * (1 << 15)

    def test_overflowing_linear_is_flagged(self):
        # A wide-format reduction whose worst case tops 2**63: 4096
        # weights of code 2**32 against |x| <= 2**31 gives ~2**75.
        plan = linear_plan(
            np.full((4, 4096), 1 << 32),
            in_format=FixedPointFormat(32, 0),
            weight_format=FixedPointFormat(48, 0),
            out_format=FixedPointFormat(32, 0))
        cert = certify_plan(plan)
        assert cert.wrap_possible
        assert cert.headroom_bits < 0
        assert cert.safe_accum_format() is None

    def test_bias_add_shifts_the_bound(self):
        base = certify_plan(linear_plan(np.full((2, 8), 50)))
        biased = certify_plan(linear_plan(np.full((2, 8), 50),
                                          bias=np.array([700, -700])))
        assert biased.magnitude_bound == base.magnitude_bound + 700
        assert biased.accum_hi == base.accum_hi + 700
        assert biased.accum_lo == base.accum_lo - 700

    def test_left_shift_hazard_is_caught_post_shift(self):
        # The accumulation itself fits int64, but requantize's negative
        # shift (out fraction far above accum fraction) scales it past
        # the word: post_shift_bound must catch what the raw
        # accumulator bound misses.
        plan = linear_plan(
            np.full((1, 16), 1 << 20),
            in_format=FixedPointFormat(24, 0),
            weight_format=FixedPointFormat(24, 0),
            out_format=FixedPointFormat(60, 48))
        cert = certify_plan(plan)
        assert cert.magnitude_bound <= (1 << 63) - 1
        assert cert.post_shift_bound > (1 << 63) - 1
        assert cert.wrap_possible

    def test_wrap_possible_kernel_verdict(self):
        plan = linear_plan(
            np.full((4, 4096), 1 << 32),
            in_format=FixedPointFormat(32, 0),
            weight_format=FixedPointFormat(48, 0),
            out_format=FixedPointFormat(32, 0))
        # certify_kernel reads only the plans list.
        cert = certify_kernel(SimpleNamespace(plans=[plan]))
        assert cert.verdict == VERDICT_WRAP_POSSIBLE
        assert cert.wrap_possible


# ----------------------------------------------------------------------
# Compiled kernels: zoo-wide clean verdicts
# ----------------------------------------------------------------------
class TestCompiledKernels:
    @pytest.fixture(scope="class", params=sorted(ZOO), ids=sorted(ZOO))
    def zoo_certificate(self, request):
        dataset, in_shape, config = ZOO[request.param]
        deployment = Deployment.from_spec(
            small_spec(request.param, dataset, in_shape[1]),
            in_shape, config=config)
        kernel = compile_deployment(deployment, calibration_rows=8,
                                    num_samples=2)
        return certify_kernel(kernel)

    def test_zoo_models_certify_clean(self, zoo_certificate):
        assert zoo_certificate.verdict == VERDICT_SATURATION_ONLY
        assert zoo_certificate.min_headroom_bits is not None
        assert zoo_certificate.min_headroom_bits > 0

    def test_every_arithmetic_layer_has_bounds(self, zoo_certificate):
        for layer in zoo_certificate.layers:
            if layer.arithmetic:
                assert layer.magnitude_bound >= max(
                    abs(layer.accum_lo), abs(layer.accum_hi))
                assert layer.required_accum_bits <= 64
                assert layer.safe_accum_format() is not None

    def test_fingerprint_tracks_tensor_bytes(self, lenet_deployment):
        kernel = compile_deployment(lenet_deployment, calibration_rows=8,
                                    num_samples=2)
        before = kernel_fingerprint(kernel)
        plan = next(p for p in kernel.plans if "weight" in p.tensors)
        plan.tensors["weight"] = plan.tensors["weight"].copy()
        plan.tensors["weight"].flat[0] += 1
        assert kernel_fingerprint(kernel) != before


def first_bounded(payload):
    """The first arithmetic layer of a stored certificate payload."""
    return next(layer for layer in payload["layers"]
                if layer["magnitude_bound"] is not None)


#: Hand edits of a stored certificate: each one must read as stale.
CERTIFICATE_EDITS = {
    "no-layers": lambda p: p.update(layers=[]),
    "bound-one": lambda p: first_bounded(p).update(magnitude_bound="1"),
    "post-shift-zero": lambda p: first_bounded(p).update(
        post_shift_bound="0"),
    "unknown-layer-key": lambda p: p["layers"][0].update(extra=1),
    "headroom-99": lambda p: p.update(min_headroom_bits=99),
    "layers-not-a-list": lambda p: p.update(layers=5),
    "no-fingerprint": lambda p: p.pop("kernel_fingerprint"),
    "layer-without-name": lambda p: p["layers"][0].pop("name"),
    "bound-not-a-number": lambda p: first_bounded(p).update(
        magnitude_bound="abc"),
    "fingerprint-zeros": lambda p: p.update(kernel_fingerprint="0" * 64),
}


# ----------------------------------------------------------------------
# Artifact gates: compile persists, verify re-derives, stale detected
# ----------------------------------------------------------------------
class TestArtifactGates:
    @pytest.fixture(scope="class")
    def compiled_store(self, lenet_deployment, tmp_path_factory):
        store = ArtifactStore(str(tmp_path_factory.mktemp("certify")))
        compile_and_report(lenet_deployment, store, calibration_rows=8,
                           fidelity_rows=4, num_samples=2)
        return store

    def test_compile_persists_certificate(self, compiled_store):
        assert compiled_store.has(CERTIFICATE_ARTIFACT)
        stored = compiled_store.load_json(CERTIFICATE_ARTIFACT)
        assert stored["verdict"] == VERDICT_SATURATION_ONLY

    def test_verify_kernel_passes(self, compiled_store, lenet_deployment):
        result = verify_kernel(compiled_store, lenet_deployment)
        assert result.ok
        assert result.stored is not None
        assert not result.stale
        assert result.certificate.kernel_fingerprint \
            == result.stored["kernel_fingerprint"]

    @staticmethod
    def _copy_store(src, dst, *, skip=()):
        for name in src.list_artifacts():
            if name not in skip:
                dst.save_json(name, src.load_json(name))
        dst.save_state("kernel_tensors", src.load_state("kernel_tensors"))

    @pytest.mark.parametrize("edit", sorted(CERTIFICATE_EDITS))
    def test_edited_certificate_is_stale(self, compiled_store,
                                         lenet_deployment, tmp_path, edit):
        # Every stored field is checked against the re-derived
        # certificate, not only the fingerprint and the verdict.
        tampered = ArtifactStore(str(tmp_path))
        self._copy_store(compiled_store, tampered)
        payload = tampered.load_json(CERTIFICATE_ARTIFACT)
        CERTIFICATE_EDITS[edit](payload)
        tampered.save_json(CERTIFICATE_ARTIFACT, payload)
        result = verify_kernel(tampered, lenet_deployment)
        assert result.stale
        assert not result.ok
        assert result.certificate.verdict == VERDICT_SATURATION_ONLY
        assert result.stored == payload

    @pytest.mark.parametrize("edit", sorted(CERTIFICATE_EDITS))
    def test_resume_rewrites_edited_certificate(
            self, compiled_store, lenet_deployment, tmp_path, edit):
        # The certificate is derived from the kernel bytes on every
        # call, never read back: a resumed compile returns the derived
        # one and writes it over the edited copy.
        tampered = ArtifactStore(str(tmp_path))
        self._copy_store(compiled_store, tampered)
        payload = tampered.load_json(CERTIFICATE_ARTIFACT)
        CERTIFICATE_EDITS[edit](payload)
        tampered.save_json(CERTIFICATE_ARTIFACT, payload)
        _, _, certificate = compile_and_report(
            lenet_deployment, tampered, calibration_rows=8,
            fidelity_rows=4, num_samples=2)
        assert certificate.to_dict() \
            == compiled_store.load_json(CERTIFICATE_ARTIFACT)
        assert tampered.load_json(CERTIFICATE_ARTIFACT) \
            == certificate.to_dict()
        assert verify_kernel(tampered, lenet_deployment).ok

    def test_cli_explains_an_edited_certificate(self, compiled_store,
                                                tmp_path, capsys):
        # The kernel bytes are those compile wrote; only the stored
        # certificate was edited, so the text must not blame them, and
        # the resumed compile it points at mends the copy.
        copy = tmp_path / "tampered"
        shutil.copytree(compiled_store.root, copy)
        tampered = ArtifactStore(str(copy))
        payload = tampered.load_json(CERTIFICATE_ARTIFACT)
        CERTIFICATE_EDITS["bound-one"](payload)
        tampered.save_json(CERTIFICATE_ARTIFACT, payload)
        assert main(["verify-kernel", "--deployment", str(copy)]) == 1
        derived, stale = capsys.readouterr().out.split(
            "\nstored certificate: ")
        assert stale.startswith("STALE")
        assert "re-derived from the kernel on disk" in stale
        assert "kernel bytes" not in stale and "--force" not in stale
        assert main(["compile", "--deployment", str(copy)]) == 0
        assert derived in capsys.readouterr().out
        assert main(["verify-kernel", "--deployment", str(copy)]) == 0
        assert "verification: OK" in capsys.readouterr().out

    def test_resume_backfills_missing_certificate(
            self, compiled_store, lenet_deployment, tmp_path):
        clone = ArtifactStore(str(tmp_path))
        self._copy_store(compiled_store, clone,
                         skip=(CERTIFICATE_ARTIFACT,))
        assert not clone.has(CERTIFICATE_ARTIFACT)
        compile_and_report(lenet_deployment, clone, calibration_rows=8,
                           fidelity_rows=4, num_samples=2)
        assert clone.has(CERTIFICATE_ARTIFACT)

    def test_compile_refuses_wrap_possible(self, lenet_deployment,
                                           tmp_path):
        # An absurdly fine conv1 output format drives requantize's
        # shift hugely negative — the exact left-shift that wraps
        # int64 — and the compile must refuse to persist.
        store = ArtifactStore(str(tmp_path))
        overrides = {"conv1": FixedPointFormat(60, 59)}
        with pytest.raises(CompileError, match="wrap-possible"):
            compile_and_report(lenet_deployment, store,
                               calibration_rows=8, fidelity_rows=4,
                               num_samples=2, overrides=overrides)
        assert not store.has(CERTIFICATE_ARTIFACT)

    def test_allow_unsafe_persists_and_verify_fails(
            self, lenet_deployment, tmp_path):
        store = ArtifactStore(str(tmp_path))
        overrides = {"conv1": FixedPointFormat(60, 59)}
        _, _, cert = compile_and_report(
            lenet_deployment, store, calibration_rows=8, fidelity_rows=4,
            num_samples=2, overrides=overrides, allow_unsafe=True)
        assert cert.verdict == VERDICT_WRAP_POSSIBLE
        result = verify_kernel(store, lenet_deployment)
        assert not result.ok
        assert not result.stale  # honest certificate, unsafe kernel

    @pytest.fixture
    def unsafe_store(self, lenet_deployment, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compile_and_report(lenet_deployment, store, overrides=UNSAFE,
                           allow_unsafe=True, **REQUEST)
        return store

    def test_resumed_compile_refuses_wrap_possible(
            self, lenet_deployment, unsafe_store):
        # The same request resumes the stored kernel, and the gate
        # refuses it as it refuses a fresh one, writing nothing.
        before = {name: unsafe_store.load_json(name)
                  for name in unsafe_store.list_artifacts()}
        with mock.patch.object(compiler, "compile_deployment") as fresh:
            with pytest.raises(CompileError) as refused:
                compile_and_report(lenet_deployment, unsafe_store,
                                   overrides=UNSAFE, **REQUEST)
        assert fresh.call_count == 0
        message = str(refused.value)
        assert message.startswith(GATE_MESSAGE)
        assert "widen the activation formats" in message
        assert ("`repro compile --allow-unsafe` keeps such a kernel on "
                "disk for inspection only") in message
        assert "allow_unsafe=True" not in message
        assert {name: unsafe_store.load_json(name)
                for name in unsafe_store.list_artifacts()} == before

    def test_allow_unsafe_resumes_wrap_possible(
            self, lenet_deployment, unsafe_store):
        with mock.patch.object(compiler, "compile_deployment") as fresh:
            kernel, _, certificate = compile_and_report(
                lenet_deployment, unsafe_store, overrides=UNSAFE,
                allow_unsafe=True, **REQUEST)
        assert fresh.call_count == 0
        assert certificate is kernel.certificate
        assert certificate.verdict == VERDICT_WRAP_POSSIBLE
        assert unsafe_store.load_json(CERTIFICATE_ARTIFACT) \
            == certificate.to_dict()


# ----------------------------------------------------------------------
# One certificate per kernel, one gate before it runs
# ----------------------------------------------------------------------
async def serve_one(service, images):
    async with service:
        return await service.predict(images)


def derived_plans(action) -> list:
    """The plan names ``certify_plan`` runs on while ``action`` runs."""
    with mock.patch.object(certify_module, "certify_plan",
                           wraps=certify_module.certify_plan) as spy:
        action()
    return [call.args[0].name for call in spy.call_args_list]


class TestOneDerivationPerPlan:
    @pytest.fixture(scope="class")
    def plan_names(self, lenet_deployment):
        return [plan.name for plan in compile_deployment(
            lenet_deployment, calibration_rows=8, num_samples=2).plans]

    def test_fresh_compile(self, lenet_deployment, plan_names, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert derived_plans(lambda: compile_and_report(
            lenet_deployment, store, **REQUEST)) == plan_names

    def test_resumed_compile(self, lenet_deployment, plan_names,
                             tmp_path):
        store = ArtifactStore(str(tmp_path))
        compile_and_report(lenet_deployment, store, **REQUEST)
        with mock.patch.object(compiler, "compile_deployment") as fresh:
            assert derived_plans(lambda: compile_and_report(
                lenet_deployment, store, **REQUEST)) == plan_names
        assert fresh.call_count == 0

    @pytest.mark.parametrize("replicas", [0, 2], ids=["inline", "replicas"])
    def test_fixed_service_setup_and_predict(self, lenet_deployment,
                                             plan_names, replicas):
        if replicas and not ReplicaPool.available():
            pytest.skip("replica pools need the 'fork' start method")

        def serve():
            service = UncertaintyService(lenet_deployment, backend="fixed",
                                         replicas=replicas)
            asyncio.run(serve_one(
                service, np.zeros((2, 1, 16, 16), dtype=np.float32)))
        assert derived_plans(serve) == plan_names

    def test_service_refuses_a_handed_wrap_possible_kernel(
            self, lenet_deployment):
        unsafe = compile_deployment(lenet_deployment, calibration_rows=8,
                                    num_samples=2, overrides=UNSAFE)
        with pytest.raises(CompileError) as refused:
            UncertaintyService(lenet_deployment, backend="fixed",
                               kernel=unsafe)
        assert str(refused.value).startswith(GATE_MESSAGE)

    def test_certificate_survives_a_rebind(self, lenet_deployment):
        kernel = compile_deployment(lenet_deployment, calibration_rows=8,
                                    num_samples=2)
        certificate = kernel.certificate
        kernel.rebind_tensors({name: array.copy() for name, array
                               in kernel.tensor_arrays().items()})
        assert kernel.certificate is certificate
        assert certificate.to_dict() == certify_kernel(kernel).to_dict()


# ----------------------------------------------------------------------
# Emitter integration: certified accum_t widths reach parameters.h
# ----------------------------------------------------------------------
class TestEmitterIntegration:
    def test_certificate_overrides_accum_typedefs(self, lenet_deployment,
                                                  tmp_path):
        from repro.hw import (
            AcceleratorBuilder,
            AcceleratorConfig,
            emit_hls_project,
        )
        from repro.hw.codegen.emitter import c_type

        kernel = compile_deployment(lenet_deployment, calibration_rows=8,
                                    num_samples=2)
        design = AcceleratorBuilder(AcceleratorConfig(pe=8)).build_for_config(
            lenet_deployment.instantiate(), (1, 16, 16),
            lenet_deployment.config, name="lenet_slim")
        emit_hls_project(design, kernel, str(tmp_path))
        text = (tmp_path / "firmware" / "parameters.h").read_text()
        structs = text.split("struct config")[1:]
        formats = certify_kernel(kernel).accum_formats()
        assert formats, "the kernel has arithmetic layers"
        for i, plan in enumerate(kernel.plans):
            assert structs[i].startswith(f"{i} ")
            if plan.name in formats:
                assert (f"typedef {c_type(formats[plan.name])} accum_t;"
                        in structs[i])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
