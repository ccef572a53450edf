"""Tests for HLS project emission from a compiled kernel.

The emitter lowers nothing but the compiled kernel, so the project is
checked against it:

* the compile gate emits LeNet, LeNet-slim (with the Gaussian extension
  unit), VGG-11-slim and MLP-slim projects through ``build_design`` and
  runs ``g++ -std=c++14 -Wall -fsyntax-only`` on each top and testbench
  against the declarations-only ``ap_fixed``/``ap_int`` headers in
  ``tests/hls_stubs``;
* the values gate parses every emitted config struct and array header
  and compares them with ``kernel.plans`` and the overflow certificate:
  codes in the templates' layout (flatten permutation included),
  geometry, typedefs, dropout-unit constants and the Masksembles ROM.
"""

import os
import re
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis.certify import certify_kernel
from repro.api import (
    ExperimentSpec,
    PipelineContext,
    SpecifyStage,
    build_design,
)
from repro.dropout import (
    GAUSSIAN_HW_PROFILE,
    GaussianDropout,
    registered_design,
)
from repro.hw import AcceleratorBuilder, AcceleratorConfig, emit_hls_project
from repro.hw.compile import CompileError, compile_deployment
from repro.hw.fixed_point import FixedPointFormat
from repro.serve import Deployment

STUBS = os.path.join(os.path.dirname(__file__), "hls_stubs")

#: Warnings a syntax check of an HLS project may print: the HLS pragmas
#: and loop labels are for the HLS tool, and ``mode_state`` is only read
#: by a Random unit.
ALLOWED_WARNINGS = {"unknown-pragmas", "unused-label",
                    "unused-but-set-variable"}

#: (model, dataset, image size, config, with the Gaussian extension).
PROJECTS = {
    "lenet_bkm": ("lenet", "mnist_like", 28, "B-K-M", False),
    "lenet_rrb": ("lenet", "mnist_like", 28, "R-R-B", False),
    "lenet_mmm": ("lenet", "mnist_like", 28, "M-M-M", False),
    "lenet_slim_gbm": ("lenet_slim", "mnist_like", 16, "G-B-M", True),
    "vgg11_slim": ("vgg11_slim", "svhn_like", 16, "B-R-K-M", False),
    "mlp_slim": ("mlp_slim", "mnist_like", 16, "B-M", False),
}


def extension(gaussian: bool):
    return (registered_design(GaussianDropout,
                              hw_profile=GAUSSIAN_HW_PROFILE)
            if gaussian else nullcontext())


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """``emitted(key)``: ``(ctx, config, outdir)`` of a project emitted
    through ``build_design`` at T = 3, built once per module."""
    built = {}

    def get(key):
        if key not in built:
            model, dataset, size, config, gaussian = PROJECTS[key]
            outdir = str(tmp_path_factory.mktemp(key))
            with extension(gaussian):
                ctx = PipelineContext(spec=ExperimentSpec(
                    name=key, model=model, dataset=dataset,
                    image_size=size, dataset_size=120, seed=5,
                    mc_samples=3))
                SpecifyStage().execute(ctx)
                config = tuple(config.split("-"))
                build_design(ctx, config, outdir=outdir, project_name=key)
            built[key] = (ctx, config, outdir)
        return built[key]

    return get


def parse_format(ctype: str) -> FixedPointFormat:
    match = re.fullmatch(r"ap_fixed<(\d+),(-?\d+),AP_RND_CONV,AP_SAT>",
                         ctype)
    assert match, f"{ctype} does not round half to even and saturate"
    width, integer = map(int, match.groups())
    return FixedPointFormat(width, width - integer)


def parse_configs(outdir):
    """``{index: {"name", "kind", constants..., "types": {...}}}``."""
    text = open(os.path.join(outdir, "firmware", "parameters.h")).read()
    configs = {}
    for name, kind, index, body in re.findall(
            r"// (\S+) \((\w+)[^)]*\)\nstruct config(\d+) "
            r": nnet::common_config \{\n(.*?)\n\};", text, re.S):
        entry = {"name": name, "kind": kind}
        entry.update((key, int(value)) for key, value in re.findall(
            r"static const unsigned (\w+) = (\d+);", body))
        entry.update((key, Fraction(value)) for key, value in re.findall(
            r"static constexpr double (\w+) = (\S+);", body))
        entry["types"] = {key: parse_format(ctype) for ctype, key in
                          re.findall(r"typedef (\S+) (\w+);", body)}
        configs[int(index)] = entry
    return configs


def parse_array(outdir, name, configs):
    """The integer codes of ``weights/<name>.h`` (each literal must be
    exactly a code of its declared type)."""
    text = open(os.path.join(outdir, "firmware", "weights",
                             f"{name}.h")).read()
    match = re.fullmatch(r"static const config(\d+)::(\w+) (\w+)\[(\d+)\] "
                         r"= \{(.*)\};\n", text, re.S)
    assert match, text[:200]
    index, type_key, declared, size, values = match.groups()
    assert declared == name
    fmt = configs[int(index)]["types"][type_key]
    codes = [Fraction(v) * 2 ** fmt.fraction_bits for v in values.split(",")]
    assert all(code.denominator == 1 for code in codes)
    assert len(codes) == int(size)
    return int(index), type_key, np.array([int(c) for c in codes])


def channels_last_to_natural(shape):
    """``natural[j]``: the ``(c, h, w)``-order index of channels-last
    position ``j`` of a feature map of ``shape``."""
    c, h, w = shape
    j = np.arange(c * h * w)
    chan, pos = j % c, j // c
    return chan * h * w + pos


def kernel_mask_codes(kernel, num_samples):
    """The quantized mask plan a fresh kernel applies, by slot name."""
    images = np.zeros((1,) + kernel.deployment.input_shape, np.float32)
    kernel.predict(images, num_samples=num_samples)
    (codes, _), = kernel._mask_codes._entries.values()
    return codes


@pytest.fixture(scope="module")
def design_bkm():
    spec = ExperimentSpec(name="emit", model="lenet_slim",
                          dataset="mnist_like", image_size=16,
                          dataset_size=120, seed=12)
    deployment = Deployment.from_spec(spec, (1, 16, 16),
                                      config=("B", "K", "M"))
    kernel = compile_deployment(deployment, calibration_rows=8,
                                num_samples=2)
    design = AcceleratorBuilder(AcceleratorConfig(pe=8)).build_for_config(
        deployment.instantiate(), (1, 16, 16), deployment.config,
        name="lenet_slim")
    return kernel, design


class TestProjectStructure:
    def test_all_expected_files(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        project = emit_hls_project(design, kernel, str(tmp_path),
                                   project_name="testproj")
        rel = set(project.relative_files())
        for expected in (
            "firmware/defines.h",
            "firmware/parameters.h",
            "firmware/testproj.h",
            "firmware/testproj.cpp",
            "firmware/nnet_utils/nnet_dropout.h",
            "firmware/nnet_utils/nnet_conv2d.h",
            "firmware/weights/w0.h",
            "tb/testproj_test.cpp",
            "build_prj.tcl",
            "reports/csynth.rpt",
        ):
            assert expected in rel, f"missing {expected}"

    def test_weights_emitted(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        project = emit_hls_project(design, kernel, str(tmp_path))
        headers = {f for f in project.relative_files()
                   if f.startswith("firmware/weights/")}
        expected = set()
        for i, plan in enumerate(kernel.plans):
            names = {"conv2d": ("w", "b"), "dense": ("w", "b"),
                     "batchnorm": ("s", "sh")}.get(plan.kind, ())
            if plan.dropout_code == "M":
                names = ("mask_rom_",)
            expected.update(f"firmware/weights/{n}{i}.h" for n in names)
        assert headers == expected
        top = (tmp_path / "firmware" / "myproject.cpp").read_text()
        for header in headers:
            assert f'#include "{header[len("firmware/"):]}"' in top


class TestGeneratedContent:
    def test_defines_fixed_point(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        emit_hls_project(design, kernel, str(tmp_path))
        text = (tmp_path / "firmware" / "defines.h").read_text()
        assert "typedef ap_fixed<16,8,AP_RND_CONV,AP_SAT> input_t;" in text
        assert "#define MC_SAMPLES 3" in text
        assert "#define N_INPUT 256" in text  # 1*16*16
        assert "#define N_OUTPUT 10" in text

    def test_top_calls_active_dropout_designs(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        emit_hls_project(design, kernel, str(tmp_path),
                         project_name="top_bkm")
        text = (tmp_path / "firmware" / "top_bkm.cpp").read_text()
        assert "bernoulli_dropout" in text
        assert "block_dropout" in text
        assert "masksembles_dropout" in text
        assert "random_dropout" not in text

    def test_dropout_header_has_all_four_units(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        emit_hls_project(design, kernel, str(tmp_path))
        text = (tmp_path / "firmware" / "nnet_utils"
                / "nnet_dropout.h").read_text()
        for unit in ("bernoulli_dropout", "random_dropout",
                     "block_dropout", "masksembles_dropout"):
            assert unit in text
        assert "lfsr_step" in text

    def test_tcl_clock_period(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        emit_hls_project(design, kernel, str(tmp_path))
        text = (tmp_path / "build_prj.tcl").read_text()
        # 181 MHz -> 5.52 ns.
        assert "create_clock -period 5.52" in text
        assert "xcku115" in text

    def test_report_matches_design(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        emit_hls_project(design, kernel, str(tmp_path))
        text = (tmp_path / "reports" / "csynth.rpt").read_text()
        assert "B-K-M" in text
        assert "XCKU115" in text

    def test_weight_header_quantized_codes(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        emit_hls_project(design, kernel, str(tmp_path))
        configs = parse_configs(str(tmp_path))
        index, type_key, codes = parse_array(str(tmp_path), "w0", configs)
        plan = kernel.plans[0]
        assert (index, type_key) == (0, "weight_t")
        assert configs[0]["types"]["weight_t"] == plan.weight_format
        assert sorted(codes) == sorted(plan.tensors["weight"].ravel())


class TestValidation:
    def test_bad_project_name(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        with pytest.raises(ValueError, match="identifier"):
            emit_hls_project(design, kernel, str(tmp_path), "my project")

    def test_design_of_another_config_refused(self, design_bkm, tmp_path):
        kernel, _ = design_bkm
        other = AcceleratorBuilder(AcceleratorConfig(pe=8)).build_for_config(
            kernel.deployment.instantiate(), (1, 16, 16), ("B", "B", "M"))
        with pytest.raises(CompileError, match="not traced from"):
            emit_hls_project(other, kernel, str(tmp_path))
        assert not os.listdir(tmp_path)

    def test_residual_add_refused(self, tmp_path):
        # A ResNet's shortcut adds are plans with no template yet: the
        # emitter names the first one rather than emit a top without it.
        ctx = PipelineContext(spec=ExperimentSpec(
            name="resnet-emit", model="resnet18_slim", dataset="cifar_like",
            image_size=16, dataset_size=120, seed=5, mc_samples=3))
        SpecifyStage().execute(ctx)
        with pytest.raises(CompileError, match=r"layer "
                           r"'stages\.0\.layers\.0\.add': no HLS template "
                           r"for a residual add"):
            build_design(ctx, ("B", "B", "B", "B"), outdir=str(tmp_path))
        assert not os.listdir(tmp_path)

    def test_wrap_possible_kernel_refused(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        unsafe = compile_deployment(
            kernel.deployment, calibration_rows=8, num_samples=2,
            overrides={"conv1": FixedPointFormat(60, 59)})
        assert certify_kernel(unsafe).wrap_possible
        with pytest.raises(CompileError, match="wrap-possible"):
            emit_hls_project(design, unsafe, str(tmp_path))


class TestCompiledFormats:
    """Every typedef comes from the kernel's plans."""

    def test_parameters_use_resolved_typedefs(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        emit_hls_project(design, kernel, str(tmp_path))
        configs = parse_configs(str(tmp_path))
        for i, plan in enumerate(kernel.plans):
            types = configs[i]["types"]
            assert types["result_t"] == plan.out_format
            if plan.kind in ("conv2d", "dense"):
                assert types["weight_t"] == plan.weight_format
            if plan.kind == "batchnorm":
                assert types["scale_t"] == plan.weight_format
            if plan.dropout_code is not None:
                assert types["mask_t"] == plan.mask_format

    def test_weight_headers_quantize_per_layer(self, design_bkm, tmp_path):
        kernel, design = design_bkm
        emit_hls_project(design, kernel, str(tmp_path))
        configs = parse_configs(str(tmp_path))
        weight_formats = {configs[i]["types"]["weight_t"]
                          for i, plan in enumerate(kernel.plans)
                          if plan.kind in ("conv2d", "dense")}
        # Tight per-tensor weight formats, not the uniform <16,8>.
        assert weight_formats - {FixedPointFormat(16, 8)}


def syntax_check(outdir, key):
    """``g++ -fsyntax-only`` on a project's top and testbench."""
    return subprocess.run(
        ["g++", "-std=c++14", "-Wall", "-fsyntax-only", "-I", STUBS,
         os.path.join(outdir, "firmware", f"{key}.cpp"),
         os.path.join(outdir, "tb", f"{key}_test.cpp")],
        capture_output=True, text=True)


@pytest.fixture(scope="module")
def syntax_checks(emitted):
    """Every project's syntax check, two compilers at a time."""
    outdirs = {key: emitted(key)[2] for key in PROJECTS}
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(outdirs, pool.map(syntax_check, outdirs.values(),
                                          outdirs)))


@pytest.mark.skipif(shutil.which("g++") is None,
                    reason="the compile gate needs g++")
@pytest.mark.parametrize("key", sorted(PROJECTS))
def test_project_compiles(syntax_checks, key):
    result = syntax_checks[key]
    assert result.returncode == 0, result.stderr
    assert "error" not in result.stderr, result.stderr
    warnings = set(re.findall(r"\[-W([\w-]+)\]", result.stderr))
    assert warnings <= ALLOWED_WARNINGS, result.stderr


@pytest.mark.parametrize("key", sorted(PROJECTS))
def test_project_values_match_kernel(emitted, key):
    ctx, config, outdir = emitted(key)
    with extension(PROJECTS[key][4]):
        kernel = compile_deployment(
            Deployment.from_context(ctx, config=config))
        masks = kernel_mask_codes(kernel, ctx.spec.num_masks)
    accums = certify_kernel(kernel).accum_formats()
    spec = ctx.spec
    configs = parse_configs(outdir)
    assert [configs[i]["name"] for i in sorted(configs)] \
        == [plan.name for plan in kernel.plans]

    flat_from = None
    for i, plan in enumerate(kernel.plans):
        entry = configs[i]
        types = entry["types"]
        assert entry["n_in"] == int(np.prod(plan.in_shape))
        assert entry["n_out"] == int(np.prod(plan.out_shape))
        assert types["result_t"] == plan.out_format
        if plan.name in accums:
            assert types["accum_t"] == accums[plan.name]
        if plan.kind in ("conv2d", "pooling"):
            assert entry["stride"] == plan.attrs["stride"]
            assert entry["pad"] == plan.attrs["padding"]
        if plan.kind == "conv2d":
            f, c = plan.out_shape[0], plan.in_shape[0]
            k = entry["filt_height"]
            assert k == entry["filt_width"] == plan.attrs["kernel_size"]
            _, _, weights = parse_array(outdir, f"w{i}", configs)
            kh, kw, cc, ff = np.indices((k, k, c, f)).reshape(4, -1)
            expected = plan.tensors["weight"].reshape(f, c, k, k)
            assert np.array_equal(
                weights[((kh * k + kw) * c + cc) * f + ff],
                expected[ff, cc, kh, kw])
        if plan.kind == "dense":
            n_in, n_out = entry["n_in"], entry["n_out"]
            _, _, weights = parse_array(outdir, f"w{i}", configs)
            rows = (np.arange(n_in) if flat_from is None
                    else channels_last_to_natural(flat_from))
            j, o = np.indices((n_in, n_out)).reshape(2, -1)
            assert np.array_equal(weights[j * n_out + o],
                                  plan.tensors["weight"][o, rows[j]])
        if plan.kind in ("conv2d", "dense"):
            _, type_key, bias = parse_array(outdir, f"b{i}", configs)
            assert types[type_key] == accums[plan.name]
            assert np.array_equal(bias, plan.tensors.get(
                "bias", np.zeros(plan.out_shape[0], np.int64)))
        if plan.kind == "batchnorm":
            assert np.array_equal(parse_array(outdir, f"s{i}", configs)[2],
                                  plan.tensors["scale"])
            assert np.array_equal(parse_array(outdir, f"sh{i}", configs)[2],
                                  plan.tensors["shift"])
        if plan.kind == "pooling":
            assert entry["pool_size"] == plan.attrs["kernel_size"]
        if plan.dropout_code in ("B", "R", "K"):
            keep = 1.0 - spec.dropout_p
            fmt = plan.mask_format
            assert entry["inv_keep"] * 2 ** fmt.fraction_bits \
                == fmt.to_fixed(np.float32(1 / keep))
        if plan.dropout_code in ("B", "R"):
            assert entry["keep_threshold"] == round(keep * 65535)
        if plan.dropout_code == "K":
            _, h, w = plan.in_shape
            block = min(spec.block_size, h, w)
            gamma = (spec.dropout_p / block ** 2 * h * w
                     / ((h - block + 1) * (w - block + 1)))
            assert entry["block_size"] == block
            assert abs(entry["gamma_threshold"] - gamma * 65535) <= 0.5
        if plan.dropout_code == "M":
            assert entry["num_masks"] == spec.num_masks
            _, _, rom = parse_array(outdir, f"mask_rom_{i}", configs)
            applied = masks[plan.slot_name].reshape(spec.num_masks, -1)
            assert np.array_equal(rom.reshape(spec.num_masks, -1),
                                  applied)
        if plan.kind == "flatten" and len(plan.in_shape) == 3:
            flat_from = plan.in_shape
        elif plan.kind not in ("activation", "dropout", "identity"):
            flat_from = None

    if PROJECTS[key][0] == "lenet":
        geometry = {configs[i]["name"]: (configs[i]["filt_height"],
                                         configs[i]["pad"])
                    for i in configs if configs[i]["kind"] == "conv2d"}
        assert geometry == {"conv1": (5, 2), "conv2": (5, 0)}
        assert spec.dropout_p == 0.15
