"""Setuptools entry point and the package's only metadata file.

There is no ``pyproject.toml``, so the package installs without network
access to build backends (``pip install -e . --no-build-isolation`` or
``python setup.py develop``).  The test suite additionally needs ``pytest``
and ``hypothesis`` (see ``.github/workflows/ci.yml``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Reproduction of A2SGD: O(1) Communication for Distributed SGD "
                 "through Two-Level Gradient Averaging"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
)
