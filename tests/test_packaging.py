"""``setup.py`` declares the package the README's ``pip install -e .`` installs."""

import os
import subprocess
import sys

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_egg_info_has_the_version_and_the_requirements(tmp_path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path)],
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=120,
    )
    info = tmp_path / "repro.egg-info"
    metadata = (info / "PKG-INFO").read_text().splitlines()
    assert "Name: repro" in metadata
    assert f"Version: {repro.__version__}" in metadata
    assert "Requires-Python: >=3.11" in metadata
    assert (info / "requires.txt").read_text().split() == ["numpy", "scipy"]
    # The src layout: every subpackage is found under ``src/``.
    assert "src/repro/api/__init__.py" in (info / "SOURCES.txt").read_text().split()
