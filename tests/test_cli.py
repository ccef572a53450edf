"""Tests for the command-line interface."""

import json

import pytest

from repro.api import (
    EvolutionSpec,
    ExperimentSpec,
    GenerateSpec,
    SearchSpec,
    TrainSpec,
)
from repro.cli import build_parser, main


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
        # Second invocation resumes from the persisted artifacts — here
        # from a copy of the spec file still carrying the retired
        # engine/train_mode keys, which load (with a deprecation
        # notice) into the same run.
        payload = json.loads(spec_file.read_text())
        payload["engine"] = "looped"
        payload["train"]["train_mode"] = "reference"
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(payload))
        with pytest.warns(DeprecationWarning):
            assert main(["run", "--spec", str(legacy),
                         "--store", store]) == 0
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

    def test_compile_missing_deployment_dir_is_user_error(self, tmp_path,
                                                          capsys):
        code = main(["compile", "--deployment",
                     str(tmp_path / "missing")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
