"""Smoke tests of the example scripts.

All examples must at least compile, and every import an example or a
bench file makes from this repository — at module level or inside a
function — must resolve; the cheapest examples run end to end
(in-process, so the shared interpreter state stays warm).
"""

import ast
import importlib
import os
import pathlib
import py_compile
import runpy
import sys

import pytest

REPO_DIR = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_DIR / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
SCRIPTS = ALL_EXAMPLES + sorted((REPO_DIR / "benchmarks").glob("*.py"))

#: Top-level packages of this repository.
LOCAL_PACKAGES = ("repro", "benchmarks", "tests")


def local_imports(path):
    """``(module, names)`` for every local import in ``path``, any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in LOCAL_PACKAGES:
                    yield alias.name, ()
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] in LOCAL_PACKAGES):
            yield node.module, tuple(alias.name for alias in node.names)


def resolve(module_name, names):
    """Import ``module_name`` and each of ``names`` from it."""
    module = importlib.import_module(module_name)
    for name in names:
        # ``from pkg import name`` falls back to a submodule.
        if not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")


class TestCompile:
    @pytest.mark.parametrize(
        "path", ALL_EXAMPLES, ids=[p.name for p in ALL_EXAMPLES])
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_expected_examples_present(self):
        names = {p.name for p in ALL_EXAMPLES}
        for expected in ("quickstart.py", "batch_sweep.py",
                         "lenet_mnist_search.py",
                         "resnet_cifar_pareto.py",
                         "generate_accelerator.py",
                         "uncertainty_ood.py",
                         "extended_search_space.py"):
            assert expected in names


class TestImports:
    @pytest.mark.parametrize(
        "path", SCRIPTS,
        ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
    def test_local_imports_resolve(self, path):
        for module_name, names in local_imports(path):
            resolve(module_name, names)

    def test_function_local_imports_are_walked(self, tmp_path):
        script = tmp_path / "script.py"
        script.write_text("def main():\n"
                          "    from repro.api import Runner, Gone\n")
        (found,) = local_imports(script)
        assert found == ("repro.api", ("Runner", "Gone"))
        with pytest.raises(ImportError):
            resolve(*found)


class TestRun:
    def test_generate_accelerator_with_fixed_config(self, tmp_path,
                                                    monkeypatch,
                                                    capsys):
        """The codegen example runs end to end without a search."""
        outdir = str(tmp_path / "proj")
        monkeypatch.setattr(sys, "argv", [
            "generate_accelerator.py", "--outdir", outdir,
            "--config", "B-K-M",
        ])
        runpy.run_path(str(EXAMPLES_DIR / "generate_accelerator.py"),
                       run_name="__main__")
        out = capsys.readouterr().out
        assert "Synthesis Report" in out
        assert os.path.exists(os.path.join(outdir, "build_prj.tcl"))

    def test_quickstart_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["quickstart.py"])
        runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"),
                       run_name="__main__")
        out = capsys.readouterr().out
        assert "Phase 1" in out
        assert "Phase 4" in out
        assert "Synthesis Report" in out

    def test_batch_sweep_runs_and_resumes(self, tmp_path, monkeypatch,
                                          capsys):
        """The sweep example persists runs and resumes on re-execution."""
        argv = ["batch_sweep.py", "--seeds", "1",
                "--store", str(tmp_path / "runs")]
        monkeypatch.setattr(sys, "argv", argv)
        runpy.run_path(str(EXAMPLES_DIR / "batch_sweep.py"),
                       run_name="__main__")
        out = capsys.readouterr().out
        assert "sweeping 1 experiments" in out
        assert "Accuracy Optimal" in out
        assert "(resumed)" not in out
        monkeypatch.setattr(sys, "argv", argv)
        runpy.run_path(str(EXAMPLES_DIR / "batch_sweep.py"),
                       run_name="__main__")
        assert "(resumed)" in capsys.readouterr().out
