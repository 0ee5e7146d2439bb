"""Setuptools shim for environments without PEP 660 wheel support."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["networkx>=2.6", "numpy>=1.20"],
)
