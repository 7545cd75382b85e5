"""Setuptools entry point.

The project's only packaging file: a plain ``setup.py`` keeps editable
installs working with the legacy (pre-PEP 660) setuptools available in
offline environments.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of ClusterKV: Manipulating LLM KV Cache in Semantic "
        "Space for Recallable Compression (DAC 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
