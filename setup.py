"""Setuptools packaging for the repro distribution.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so that
``pip install -e .`` works in offline environments whose setuptools
lacks the ``wheel`` package needed for PEP 660 editable builds (fall
back with ``--no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Reproduction of 'Hardware-Aware Neural Dropout Search for "
        "Reliable Uncertainty Prediction on FPGA' (DAC 2024)"),
    long_description=(
        "Dropout-based Bayesian neural networks, a layer-wise dropout "
        "search space optimized with one-shot SPOS supernet training "
        "plus an evolutionary algorithm, and an FPGA "
        "accelerator-generation phase with a GP hardware cost model. "
        "Driven through the declarative repro.api experiment layer."),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "License :: OSI Approved :: MIT License",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
