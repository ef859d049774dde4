"""Setuptools entry point.

A plain ``setup.py`` (no ``pyproject.toml``) so that ``pip install -e .``
works in fully offline environments that lack the ``wheel`` package (the
legacy ``setup.py develop`` code path needs neither network access nor wheel
building).  After an editable install the ``PYTHONPATH=src`` workaround is
unnecessary and the scenario runner is available as ``repro-run``.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    """Read ``repro.__version__`` without importing the package."""
    init_path = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(init_path, encoding="utf-8") as handle:
        match = re.search(r'^__version__\s*=\s*"([^"]+)"', handle.read(), re.MULTILINE)
    if not match:
        raise RuntimeError("repro.__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description=(
        "Simulation and analysis library reproducing 'Please, do not Decentralize "
        "the Internet with (Permissionless) Blockchains!' (ICDCS 2019)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro-run = repro.run:main",
            "repro-lint = repro.analysis.lint.cli:main",
            "repro-broker = repro.distributed.broker:main",
            "repro-worker = repro.distributed.worker:main",
        ],
    },
)
