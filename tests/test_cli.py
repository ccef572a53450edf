"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
from unittest import mock

import pytest

from repro.api import (
    EvolutionSpec,
    ExperimentSpec,
    GenerateSpec,
    SearchSpec,
    TrainSpec,
)
from repro.cli import _COMMANDS, BLAS_THREAD_VARS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.command == "search"
        assert args.model == "lenet_slim"
        assert args.aims == ["accuracy", "ece", "ape", "latency"]

    def test_generate_requires_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize"])


class TestCommands:
    def test_search_runs(self, capsys):
        code = main([
            "search", "--model", "lenet_slim", "--dataset", "mnist_like",
            "--image-size", "16", "--dataset-size", "200",
            "--epochs", "2", "--aims", "latency",
            "--population", "4", "--generations", "2", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "search space" in out
        assert "Latency Optimal" in out

    def test_report_runs(self, capsys):
        code = main([
            "report", "--model", "lenet_slim", "--image-size", "16",
            "--dataset-size", "120", "--config", "B-K-M", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Synthesis Report" in out
        assert "B-K-M" in out

    def test_generate_emits_project(self, tmp_path, capsys):
        outdir = str(tmp_path / "gen")
        code = main([
            "generate", "--model", "lenet_slim", "--image-size", "16",
            "--dataset-size", "120", "--config", "M-M-M",
            "--outdir", outdir, "--project-name", "cli_gen",
            "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "gen" / "firmware" / "cli_gen.cpp").exists()
        assert "emitted" in out

    def test_generate_refuses_residual_adds(self, tmp_path, capsys):
        code = main([
            "generate", "--model", "resnet18_slim", "--image-size", "16",
            "--dataset-size", "120", "--config", "B-B-B-B",
            "--outdir", str(tmp_path / "gen"), "--seed", "5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "residual add" in err

    def test_invalid_config_rejected(self, capsys):
        code = main([
            "report", "--model", "lenet_slim", "--image-size", "16",
            "--dataset-size", "120", "--config", "K-K-K",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not admissible" in err

    def test_unknown_design_letter_rejected(self, capsys):
        code = main([
            "report", "--model", "lenet_slim", "--image-size", "16",
            "--dataset-size", "120", "--config", "Z-Z-Z",
        ])
        assert code == 2
        assert "unknown dropout design 'Z'" in capsys.readouterr().err


class TestRunCommand:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        spec = ExperimentSpec(
            name="cli-run",
            model="lenet_slim", dataset="mnist_like", image_size=16,
            dataset_size=200, ood_size=40, seed=6,
            train=TrainSpec(epochs=2),
            search=SearchSpec(
                aims=("latency",),
                evolution=EvolutionSpec(population_size=4,
                                        generations=2)),
            generate=GenerateSpec(aim="latency"))
        path = tmp_path / "spec.json"
        spec.save(str(path))
        return path

    def test_run_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_executes_and_resumes(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "runs")
        argv = ["run", "--spec", str(spec_file), "--store", store]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run id: cli-run-" in out
        assert "Latency Optimal" in out
        assert "Synthesis Report" in out
        assert "resumed" not in out
        # A copy of the spec file still carrying the retired
        # engine/train_mode keys is a one-line user error ...
        payload = json.loads(spec_file.read_text())
        payload["engine"] = "looped"
        payload["train"]["train_mode"] = "reference"
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(payload))
        assert main(["run", "--spec", str(legacy), "--store", store]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'engine'" in err
        # ... and the second invocation of the original spec resumes
        # from the persisted artifacts.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed from artifacts" in out
        assert "train" in out

    def test_run_rejects_unknown_train_mode(self, spec_file, tmp_path,
                                            capsys):
        # The --train-mode flag is gone ...
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--spec", str(spec_file), "--train-mode", "fast"])
        capsys.readouterr()
        # ... and a spec naming a mode that never existed is still a
        # one-line user error.
        payload = json.loads(spec_file.read_text())
        payload["train"]["train_mode"] = "turbo"
        bad = tmp_path / "turbo.json"
        bad.write_text(json.dumps(payload))
        assert main(["run", "--spec", str(bad), "--no-store"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "train_mode" in err

    def test_run_json_output(self, spec_file, tmp_path, capsys):
        code = main(["run", "--spec", str(spec_file),
                     "--store", str(tmp_path / "runs"), "--json"])
        assert code == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["spec"]["name"] == "cli-run"
        assert "Latency Optimal" in digest["search"]

    def test_run_no_store(self, spec_file, capsys):
        code = main(["run", "--spec", str(spec_file), "--no-store"])
        assert code == 0
        out = capsys.readouterr().out
        assert "artifacts:" not in out

    def test_run_rejects_invalid_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "lenet", "frobnicate": 1}')
        assert main(["run", "--spec", str(bad), "--no-store"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "frobnicate" in err

    def test_run_missing_spec_file(self, tmp_path, capsys):
        code = main(["run", "--spec", str(tmp_path / "nope.json"),
                     "--no-store"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestServeCommand:
    """End-to-end: run --spec → export Deployment → serve --smoke."""

    @pytest.fixture()
    def spec_file(self, tmp_path):
        spec = ExperimentSpec(
            name="cli-serve",
            model="lenet_slim", dataset="mnist_like", image_size=16,
            dataset_size=200, ood_size=40, seed=8,
            train=TrainSpec(epochs=2),
            search=SearchSpec(
                aims=("latency",),
                evolution=EvolutionSpec(population_size=4,
                                        generations=2)),
            generate=GenerateSpec(aim="latency"))
        path = tmp_path / "spec.json"
        spec.save(str(path))
        return path

    def test_serve_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--deployment", "a",
                                       "--run-dir", "b"])

    def test_run_export_then_serve_smoke(self, spec_file, tmp_path,
                                         capsys):
        store = str(tmp_path / "runs")
        deploy = str(tmp_path / "deploy")
        code = main(["run", "--spec", str(spec_file), "--store", store,
                     "--export-deployment", deploy])
        out = capsys.readouterr().out
        assert code == 0
        assert "deployment:" in out
        assert (tmp_path / "deploy" / "deployment.json").exists()
        assert (tmp_path / "deploy" / "weights.npz").exists()
        # One-shot smoke serving answers a request and exits 0.
        assert main(["serve", "--deployment", deploy, "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "served 1 request(s)" in out
        assert "entropy=" in out
        assert "mutual_info=" in out

    def test_serve_straight_from_run_dir(self, spec_file, tmp_path,
                                         capsys):
        store = tmp_path / "runs"
        assert main(["run", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        capsys.readouterr()
        run_dirs = [entry for entry in store.iterdir()
                    if entry.is_dir() and entry.name != "eval_cache"]
        assert len(run_dirs) == 1
        code = main(["serve", "--run-dir", str(run_dirs[0]),
                     "--requests", "4", "--batch-rows", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "served 4 request(s)" in out
        assert "coalesce ratio" in out

    def test_serve_missing_deployment_dir_is_user_error(self, tmp_path,
                                                        capsys):
        code = main(["serve", "--deployment",
                     str(tmp_path / "missing"), "--smoke"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_serve_refuses_samples_beyond_the_bound(self, tmp_path,
                                                     capsys):
        from repro.serve import Deployment
        spec = ExperimentSpec(name="cli-bound", model="lenet_slim",
                              image_size=16, seed=3)
        path = Deployment.from_spec(spec, (1, 16, 16),
                                    config=("B", "K", "M")).save(
                                        str(tmp_path / "deploy"))
        code = main(["serve", "--deployment", path, "--samples", "2000",
                     "--smoke"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at most 1024" in err

    def test_serve_refuses_a_coerced_deployment_record(self, tmp_path,
                                                       capsys):
        from repro.serve import Deployment
        spec = ExperimentSpec(name="cli-record", model="lenet_slim",
                              image_size=16, seed=3)
        path = Deployment.from_spec(spec, (1, 16, 16),
                                    config=("B", "K", "M")).save(
                                        str(tmp_path / "deploy"))
        record_path = tmp_path / "deploy" / "deployment.json"
        document = json.loads(record_path.read_text())
        document["payload"]["serve_seed"] = "7"
        record_path.write_text(json.dumps(document))
        code = main(["serve", "--deployment", path, "--smoke"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "deployment.serve_seed must be an int, got '7'" in err

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--smoke", "--replicas", "-3"], "--replicas"),
        (["serve", "--requests", "0"], "--requests"),
        (["serve", "--requests", "-5"], "--requests"),
        (["chaos", "--repeat", "0"], "--repeat"),
        (["chaos", "--repeat", "-4"], "--repeat"),
        (["chaos", "--replicas", "-2"], "--replicas"),
        (["chaos", "--requests", "0", "--replicas", "0"], "--requests"),
    ])
    def test_count_flags_out_of_range_are_refused(self, tmp_path, capsys,
                                                  argv, flag):
        from repro.serve import Deployment
        spec = ExperimentSpec(name="cli-counts", model="lenet_slim",
                              image_size=16, seed=3)
        path = Deployment.from_spec(spec, (1, 16, 16),
                                    config=("B", "K", "M")).save(
                                        str(tmp_path / "deploy"))
        code = main(argv[:1] + ["--deployment", path] + argv[1:])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {flag} must be") \
            and err.count("\n") == 1


class TestCompileCommand:
    """`repro compile` round trips from a deployment dir and a run dir."""

    @pytest.fixture(scope="class")
    def deployment_dir(self, tmp_path_factory):
        from repro.serve import Deployment
        spec = ExperimentSpec(
            name="cli-compile", model="lenet_slim",
            dataset="mnist_like", image_size=16, dataset_size=200,
            seed=9)
        path = str(tmp_path_factory.mktemp("deploy"))
        Deployment.from_spec(
            spec, (1, 16, 16), config=("B", "B", "M")).save(path)
        return path

    def test_compile_requires_one_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--deployment", "a",
                                       "--run-dir", "b"])

    def test_compile_from_deployment_dir(self, deployment_dir, capsys):
        code = main(["compile", "--deployment", deployment_dir,
                     "--calibration-rows", "8", "--fidelity-rows", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compiled: model=lenet_slim config=B-B-M" in out
        assert "accuracy" in out
        assert "ap_fixed<" in out
        from repro.api import ArtifactStore
        from repro.hw.compile import KERNEL_ARTIFACT, KERNEL_TENSORS
        store = ArtifactStore(deployment_dir)
        assert store.has(KERNEL_ARTIFACT)
        assert store.has_state(KERNEL_TENSORS)

    def test_compile_resumes_and_emits_json(self, deployment_dir, capsys):
        # Artifacts from the previous test load straight back; --json
        # emits the persisted fidelity report.
        code = main(["compile", "--deployment", deployment_dir,
                     "--calibration-rows", "8", "--fidelity-rows", "16",
                     "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"fixed_accuracy", "float_accuracy",
                               "accuracy_delta", "agreement", "layers"}

    def test_serve_fixed_backend_reuses_compiled_artifact(
            self, deployment_dir, capsys):
        code = main(["serve", "--deployment", deployment_dir,
                     "--smoke", "--backend", "fixed"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=fixed" in out
        assert "served 1 request(s)" in out

    def test_compile_from_run_dir(self, tmp_path, capsys):
        spec = ExperimentSpec(
            name="cli-compile-run", model="lenet_slim",
            dataset="mnist_like", image_size=16, dataset_size=200,
            ood_size=40, seed=10,
            train=TrainSpec(epochs=2),
            search=SearchSpec(
                aims=("latency",),
                evolution=EvolutionSpec(population_size=4,
                                        generations=2)),
            generate=GenerateSpec(aim="latency"))
        spec_path = tmp_path / "spec.json"
        spec.save(str(spec_path))
        store = tmp_path / "runs"
        assert main(["run", "--spec", str(spec_path),
                     "--store", str(store)]) == 0
        capsys.readouterr()
        run_dirs = [entry for entry in store.iterdir()
                    if entry.is_dir() and entry.name != "eval_cache"]
        assert len(run_dirs) == 1
        code = main(["compile", "--run-dir", str(run_dirs[0]),
                     "--calibration-rows", "8", "--fidelity-rows", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compiled: model=lenet_slim" in out
        compiled = run_dirs[0] / "compiled"
        # The output directory is self-contained: deployment +
        # kernel + fidelity artifacts, servable on their own.
        assert (compiled / "deployment.json").exists()
        assert main(["serve", "--deployment", str(compiled),
                     "--smoke", "--backend", "fixed"]) == 0
        assert "backend=fixed" in capsys.readouterr().out

    def test_compile_honours_new_flags(self, tmp_path, capsys):
        from repro.hw.compile import compiler
        from repro.serve import Deployment
        spec = ExperimentSpec(
            name="cli-flags", model="lenet_slim", dataset="mnist_like",
            image_size=16, dataset_size=200, seed=9)
        path = str(tmp_path / "deploy")
        Deployment.from_spec(spec, (1, 16, 16),
                             config=("B", "K", "M")).save(path)
        compile_ = ["compile", "--deployment", path]
        assert main(compile_ + ["--calibration-rows", "16",
                                "--fidelity-rows", "30"]) == 0
        assert "Fixed-point fidelity (30 rows, T=3)" \
            in capsys.readouterr().out
        flags = ["--fidelity-rows", "16", "--calibration-rows", "4",
                 "--samples", "1"]
        with mock.patch.object(compiler, "compile_deployment",
                               wraps=compiler.compile_deployment) as spy:
            for _ in range(2):  # recompiles, then resumes
                assert main(compile_ + flags) == 0
                assert "Fixed-point fidelity (16 rows, T=1)" \
                    in capsys.readouterr().out
        assert spy.call_count == 1

    def test_a_reexported_deployment_never_runs_the_old_kernel(
            self, tmp_path, capsys):
        # A deployment saved over a compiled directory: serve and
        # verify-kernel refuse the stored kernel until compile
        # recompiles it for the new deployment.
        from repro.serve import Deployment

        def lenet_slim(seed, config):
            spec = ExperimentSpec(
                name="cli-rebind", model="lenet_slim",
                dataset="mnist_like", image_size=16, dataset_size=200,
                seed=seed)
            return Deployment.from_spec(spec, (1, 16, 16), config=config)

        path = str(tmp_path / "deploy")
        source = ["--deployment", path]
        request = ["--calibration-rows", "8", "--fidelity-rows", "8"]
        lenet_slim(7, ("B", "K", "M")).save(path)
        assert main(["compile"] + source + request) == 0
        lenet_slim(8, ("M", "M", "B")).save(path)
        capsys.readouterr()
        for command in (["serve", "--smoke", "--backend", "fixed"],
                        ["verify-kernel"]):
            assert main(command[:1] + source + command[1:]) == 2
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1
            assert captured.err.startswith(
                "error: kernel.deployment_fingerprint ")
            assert "served" not in captured.out
        assert main(["compile"] + source + request) == 0
        assert "compiled: model=lenet_slim config=M-M-B" \
            in capsys.readouterr().out
        assert main(["verify-kernel"] + source) == 0
        assert main(["serve", "--smoke", "--backend", "fixed"]
                    + source) == 0
        assert "config=M-M-B" in capsys.readouterr().out

    def test_serve_fixed_refuses_a_wrap_possible_compile(self, tmp_path,
                                                         capsys):
        from repro.api import AcceleratorSpec
        from repro.serve import Deployment
        spec = ExperimentSpec(
            name="cli-wide", model="lenet_slim", dataset="mnist_like",
            image_size=16, dataset_size=200, seed=9,
            accelerator=AcceleratorSpec(total_bits=40, fraction_bits=20))
        path = str(tmp_path / "deploy")
        Deployment.from_spec(spec, (1, 16, 16),
                             config=("B", "K", "M")).save(path)
        code = main(["serve", "--deployment", path, "--smoke",
                     "--backend", "fixed"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: overflow certificate is wrap-possible for layers "
            "['conv1', 'conv2', 'fc1', 'fc2', 'fc3']")
        assert "served" not in captured.out

    #: The allow-unsafe store's compile request: `compile` resumes it.
    UNSAFE_REQUEST = ["--calibration-rows", "8", "--fidelity-rows", "8"]

    @pytest.fixture(scope="class")
    def unsafe_store(self, tmp_path_factory):
        # The 40/20-bit LeNet-slim B-K-M deployment, whose certificate
        # is wrap-possible, kept on disk by `compile --allow-unsafe`.
        from repro.api import AcceleratorSpec
        from repro.serve import Deployment
        spec = ExperimentSpec(
            name="cli-wide", model="lenet_slim", dataset="mnist_like",
            image_size=16, dataset_size=200, seed=9,
            accelerator=AcceleratorSpec(total_bits=40, fraction_bits=20))
        path = str(tmp_path_factory.mktemp("unsafe"))
        Deployment.from_spec(spec, (1, 16, 16),
                             config=("B", "K", "M")).save(path)
        assert main(["compile", "--deployment", path, "--allow-unsafe"]
                    + self.UNSAFE_REQUEST) == 0
        return path

    @pytest.mark.parametrize("command", [
        ["serve", "--smoke", "--backend", "fixed"],
        ["chaos", "--backend", "fixed", "--requests", "2", "--rows", "1"],
        ["profile", "--rows", "2", "--repeats", "1"],
        ["compile"] + UNSAFE_REQUEST,
    ], ids=["serve", "chaos", "profile", "compile-resumed"])
    def test_run_paths_refuse_the_allow_unsafe_store(self, unsafe_store,
                                                     command, capsys):
        capsys.readouterr()
        code = main(command[:1] + ["--deployment", unsafe_store]
                    + command[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: overflow certificate is wrap-possible for layers "
            "['conv1', 'conv2', 'fc1', 'fc2', 'fc3']: ")

    def test_verify_kernel_reads_the_allow_unsafe_store(self, unsafe_store,
                                                       capsys):
        capsys.readouterr()
        assert main(["verify-kernel", "--deployment", unsafe_store]) == 1
        assert "verification: FAILED" in capsys.readouterr().out

    def test_profile_times_every_plan_once(self, deployment_dir, capsys):
        from repro.hw.compile import compile_deployment
        from repro.serve import Deployment
        code = main(["profile", "--deployment", deployment_dir,
                     "--rows", "4", "--repeats", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.split("\n\n")[0].splitlines()
        assert lines[0].startswith("profile: model=lenet_slim")
        assert lines[-1].startswith("total (predict)")
        steps = [line.split()[0] for line in lines[2:-1]]
        kernel = compile_deployment(Deployment.load(deployment_dir))
        assert steps == ["+".join(op.plans) for op in kernel.ops]
        covered = [name for step in steps for name in step.split("+")]
        assert covered == [plan.name for plan in kernel.plans]

    def test_profile_times_every_float_leaf(self, deployment_dir, capsys):
        from repro.hw.netlist import traced_leaves
        from repro.serve import Deployment
        code = main(["profile", "--deployment", deployment_dir,
                     "--rows", "4", "--samples", "2", "--repeats", "2"])
        assert code == 0
        _, float_table = capsys.readouterr().out.split("\n\n")
        lines = float_table.splitlines()
        assert lines[0].startswith("float: mc_predict rows=4 T=2")
        assert lines[-1].startswith("total (mc_predict)")
        model = Deployment.load(deployment_dir).instantiate()
        assert [line.split()[:2] for line in lines[2:-1]] == [
            [name, kind] for name, kind, _ in traced_leaves(model.model)]

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_serving_commands_pin_blas_threads(self, deployment_dir,
                                              tmp_path, command):
        # main() pins once before dispatch and no command pins again;
        # each argv is a cheap real call (exit 2 where it stops at an
        # input the command refuses).
        out = str(tmp_path / "compiled")
        argv, code = {
            "run": (["run", "--spec", str(tmp_path / "missing.json")], 2),
            "serve": (["serve", "--deployment", deployment_dir,
                       "--smoke"], 0),
            "chaos": (["chaos", "--deployment", deployment_dir,
                       "--emit-plan", str(tmp_path / "plan.json")], 0),
            "compile": (["compile", "--deployment", deployment_dir,
                         "--out", out, "--calibration-rows", "8",
                         "--fidelity-rows", "8"], 0),
            "verify-kernel": (["verify-kernel", "--deployment",
                               deployment_dir, "--out", out], 2),
            "profile": (["profile", "--deployment", deployment_dir,
                         "--rows", "2", "--repeats", "1"], 0),
            "lint": (["lint", os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(
                    __file__))), "src", "repro", "utils", "rng.py")], 0),
            "search": (["search", "--dataset-size", "0"], 2),
            "generate": (["generate", "--config", "B-X-M"], 2),
            "report": (["report", "--config", "B-X-M"], 2),
        }[command]
        with mock.patch("repro.cli._one_blas_thread") as pin:
            assert main(argv) == code
        pin.assert_called_once_with()

    @pytest.fixture()
    def tiny_spec(self, tmp_path):
        spec = ExperimentSpec(
            name="cli-blas", model="lenet_slim", dataset="mnist_like",
            image_size=16, dataset_size=120, ood_size=20, seed=6,
            train=TrainSpec(epochs=1),
            search=SearchSpec(
                aims=("latency",),
                evolution=EvolutionSpec(population_size=2,
                                        generations=1)))
        path = tmp_path / "spec.json"
        spec.save(str(path))
        return str(path)

    @pytest.mark.parametrize("command, user", [
        pytest.param("serve", None, id="default"),
        pytest.param("serve", "2", id="user-threads"),
        pytest.param("run", None, id="run-default"),
        pytest.param("run", "2", id="run-user-threads")])
    def test_runs_one_blas_thread_unless_the_user_sets_one(
            self, deployment_dir, tiny_spec, command, user):
        # The probe prints the bundled OpenBLAS thread count before and
        # after the command, in a fresh process.
        probe = textwrap.dedent("""
            import ctypes, glob, os, sys
            import numpy as np
            from repro.cli import main

            def threads():
                for path in glob.glob(os.path.join(
                        os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "*openblas*")):
                    try:
                        lib = ctypes.CDLL(path)
                        get = lib.scipy_openblas_get_num_threads64_
                    except (OSError, AttributeError):
                        continue
                    get.argtypes = []
                    get.restype = ctypes.c_int
                    return get()

            before = threads()
            code = main(sys.argv[1:])
            print("threads", before, threads(), code)
            """)
        argv = {"serve": ["serve", "--deployment", deployment_dir,
                          "--smoke"],
                "run": ["run", "--spec", tiny_spec, "--no-store"]}[command]
        env = {key: value for key, value in os.environ.items()
               if key not in BLAS_THREAD_VARS}
        if user is not None:
            env["OPENBLAS_NUM_THREADS"] = user
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
            + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
        done = subprocess.run([sys.executable, "-c", probe, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        _, before, after, code = done.stdout.splitlines()[-1].split()
        if before == "None":
            pytest.skip("numpy bundles no scipy_openblas")
        assert code == "0"
        assert int(after) == (1 if user is None else int(before))

    def test_profile_missing_deployment_dir_is_user_error(self, tmp_path,
                                                          capsys):
        code = main(["profile", "--deployment", str(tmp_path / "missing")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_compile_missing_deployment_dir_is_user_error(self, tmp_path,
                                                          capsys):
        code = main(["compile", "--deployment",
                     str(tmp_path / "missing")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
