"""Packaging for ``pip install -e .``: the ``repro`` package under ``src/``.

The version is read from the text of ``src/repro/__init__.py``, so building
the metadata imports neither ``repro`` nor its dependencies.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description='Reproduction of "Progress on Carbon Nanotube BEOL Interconnects"',
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
