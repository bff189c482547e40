"""Cold imports do not load the heavy scipy subpackages."""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def test_repro_list_imports_neither_scipy_stats_nor_optimize():
    # ``-X importtime`` reports every module the process imports on stderr,
    # one ``import time: self | cumulative | module`` line each.
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "list"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "table_density" in result.stdout
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "scipy.sparse" in loaded  # the probe does see scipy imports
    for heavy in ("scipy.stats", "scipy.optimize"):
        assert heavy not in loaded


def test_import_repro_circuit_loads_no_scipy_sparse():
    # The band layout imports ``scipy.sparse.csgraph`` only when a large
    # circuit needs its ordering.
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.circuit; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))",
        ],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_tlm_and_fig8c_import_neither_scipy_stats_nor_optimize(tmp_path):
    # The TLM fit and the Fig. 8c Fermi-shift root are numpy / Python ports
    # of scipy's ``linregress`` and ``brentq``; running them through the
    # engine must not pull the two subpackages in.
    script = (
        "import sys\n"
        "from repro.api import Engine\n"
        f"engine = Engine(cache_dir={str(tmp_path)!r})\n"
        "for name in ('tlm', 'fig8c'):\n"
        "    assert engine.run(name).to_records(), name\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
