"""Cold imports load only what the command needs.

Registering the experiments imports no numerics and no physics package;
each experiment imports its solvers when it runs, and no run loads the
heavy scipy subpackages it does not use.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

# What registering the experiments must not import: the numerics and every
# physics package.
HEAVY = ("numpy", "scipy") + tuple(
    f"repro.{package}"
    for package in (
        "atomistic", "core", "tcad", "circuit", "thermal", "process", "characterization"
    )
)


def _spawn(*args):
    """Run ``python ARGS`` with the source tree on the path."""
    result = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result


def _run_script(script):
    """The JSON value a script prints last."""
    return json.loads(_spawn("-c", script).stdout.strip().splitlines()[-1])


def _imported(*args):
    """Modules a ``python -m repro ARGS`` process imports, with its stdout.

    ``-X importtime`` reports every module the process imports on stderr,
    one ``import time: self | cumulative | module`` line each.
    """
    result = _spawn("-X", "importtime", "-m", "repro", *args)
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    return loaded, result.stdout


def _heavy(modules):
    return sorted(
        m for m in modules if any(m == h or m.startswith(h + ".") for h in HEAVY)
    )


def test_repro_list_imports_neither_scipy_stats_nor_optimize():
    loaded, stdout = _imported("list")
    assert "table_density" in stdout
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]

    # The probe does see scipy imports: a TCAD run loads ``scipy.sparse``,
    # and still neither of the two heavy subpackages.
    loaded, _ = _imported("run", "fig10_m1_m2", "--limit", "0")
    assert "scipy.sparse" in loaded
    for heavy in ("scipy.stats", "scipy.optimize"):
        assert heavy not in loaded


def test_registration_imports_no_physics():
    script = (
        "import json, sys\n"
        "from repro.api import ensure_registered, list_experiments\n"
        "ensure_registered()\n"
        "assert len(list_experiments()) == 23\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert _heavy(_run_script(script)) == []


def test_catalog_commands_import_no_physics():
    catalog = os.path.join(os.path.dirname(SRC), "docs", "EXPERIMENTS.md")
    for args in (("list",), ("describe", "fig12"), ("docs", "--check", catalog)):
        loaded, stdout = _imported(*args)
        assert stdout, args
        assert _heavy(loaded) == [], args


def test_a_run_imports_only_its_own_solvers():
    script = (
        "import json, sys\n"
        "from repro.api import Engine\n"
        "def loaded(*prefixes):\n"
        "    return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
        "Engine().run('table_density')\n"
        "density = loaded('scipy.sparse', 'repro.tcad', 'repro.circuit')\n"
        "Engine().run('fig12')\n"
        "print(json.dumps([density, loaded('repro.tcad')]))\n"
    )
    assert _run_script(script) == [[], []]


def test_analysis_package_resolves_its_exports_on_access():
    script = (
        "import json, sys\n"
        "import repro.analysis\n"
        "before = [m for m in sys.modules if m.startswith('repro.analysis.')]\n"
        "from repro.analysis import PAPER_REFERENCE, fig12_records\n"
        "from repro.analysis.fig12_delay_ratio import fig12_records as defined\n"
        "from repro.analysis.paper_reference import PAPER_REFERENCE as table\n"
        "print(json.dumps([before, fig12_records is defined, PAPER_REFERENCE is table]))\n"
    )
    assert _run_script(script) == [[], True, True]


def test_import_repro_circuit_loads_no_scipy_sparse():
    # The band layout imports ``scipy.sparse.csgraph`` only when a large
    # circuit needs its ordering.
    script = (
        "import json, sys, repro.circuit\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.sparse'))))\n"
    )
    assert _run_script(script) == []


def test_tlm_and_fig8c_import_neither_scipy_stats_nor_optimize(tmp_path):
    # The TLM fit and the Fig. 8c Fermi-shift root are numpy / Python ports
    # of scipy's ``linregress`` and ``brentq``; running them through the
    # engine must not pull the two subpackages in.
    script = (
        "import json, sys\n"
        "from repro.api import Engine\n"
        f"engine = Engine(cache_dir={str(tmp_path)!r})\n"
        "for name in ('tlm', 'fig8c'):\n"
        "    assert engine.run(name).to_records(), name\n"
        "print(json.dumps(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules)))\n"
    )
    assert _run_script(script) == []
