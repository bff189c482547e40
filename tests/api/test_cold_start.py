"""Cold imports load only what the command needs.

Registering the experiments imports no numerics and no physics package;
each experiment imports its solvers when it runs, and no run loads the
heavy scipy subpackages it does not use.  Package re-exports resolve on
first access, so neither the paper set-up nor the catalog and run commands
load the service, the distributed store or their stdlib transports.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

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

    The process writes ``sys.modules`` to stderr as it exits, which also
    holds what ``importlib.import_module`` loaded (``-X importtime`` misses
    those).
    """
    script = (
        "import atexit, json, runpy, sys\n"
        "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
        f"sys.argv = ['repro', *{list(args)!r}]\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )
    result = _spawn("-c", script)
    return set(json.loads(result.stderr.strip().splitlines()[-1])), result.stdout


def _under(modules, *roots):
    """The modules of ``modules`` that are one of ``roots`` or inside one."""
    return sorted(m for m in modules if any(m == r or m.startswith(r + ".") for r in roots))


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
    assert _under(_run_script(script), *HEAVY) == []


def test_catalog_commands_import_no_physics():
    catalog = os.path.join(os.path.dirname(SRC), "docs", "EXPERIMENTS.md")
    for args in (("list",), ("describe", "fig12"), ("docs", "--check", catalog)):
        loaded, stdout = _imported(*args)
        assert stdout, args
        assert _under(loaded, *HEAVY) == [], args


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


# What only the service, the distributed store and their transports load.
PLATFORM = (
    "sqlite3",
    "multiprocessing",
    "urllib.request",
    "http.client",
    "repro.dist",
    "repro.service",
)

# Every package whose re-exports resolve on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.dist",
    "repro.service",
    "repro.obs",
    "repro.campaign",
    "repro.atomistic",
    "repro.characterization",
    "repro.circuit",
    "repro.core",
    "repro.process",
    "repro.tcad",
    "repro.thermal",
)


def test_paper_setup_loads_no_platform_stack(tmp_path):
    # What the paper benchmark's set-up runs: the engine over a local cache
    # directory needs ``repro.dist.store`` alone.
    script = (
        "import json, sys\n"
        "import repro.api\n"
        "repro.api.ensure_registered()\n"
        f"repro.api.Engine(cache_dir={str(tmp_path)!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = _run_script(script)
    assert "repro.dist.store" in loaded
    assert _under(
        loaded,
        "sqlite3",
        "multiprocessing",
        "urllib.request",
        "repro.dist.sqlstore",
        "repro.dist.worker",
        "repro.dist.shards",
        "repro.service",
    ) == []


def test_em_lifetime_run_loads_no_numpy():
    loaded, stdout = _imported("run", "em_lifetime", "--limit", "0")
    assert "em_lifetime: 3 records" in stdout
    assert "repro.characterization.electromigration" in loaded
    assert _under(loaded, "numpy", *PLATFORM) == []


def test_catalog_commands_load_no_platform_stack():
    for args in (("list",), ("describe", "fig12")):
        loaded, stdout = _imported(*args)
        assert stdout, args
        assert _under(loaded, *PLATFORM) == [], args


def test_a_process_sweep_still_forks_and_matches_serial():
    # ``multiprocessing`` loads on the fork path alone; ``os.fork`` counts
    # the children the sweep starts.
    script = (
        "import json, os, sys\n"
        "from repro.api import Engine, SweepSpec\n"
        "spec = SweepSpec.grid(length_um=[1.0, 10.0, 100.0, 1000.0])\n"
        "serial = Engine().sweep('table_density', spec).content_hash\n"
        "engine = Engine(executor='process', max_workers=2)\n"
        "cold = 'multiprocessing' not in sys.modules\n"
        "children, fork = [], os.fork\n"
        "def counted_fork():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        children.append(pid)\n"
        "    return pid\n"
        "os.fork = counted_fork\n"
        "forked = engine.sweep('table_density', spec).content_hash\n"
        "print(json.dumps([cold, len(children), forked == serial]))\n"
    )
    assert _run_script(script) == [True, 2, True]


def test_importing_the_packages_loads_none_of_their_modules():
    script = (
        "import json, sys\n"
        f"for package in {list(LAZY_PACKAGES)!r}:\n"
        "    __import__(package)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    packages = set(LAZY_PACKAGES) - {"repro"}
    loaded = _run_script(script)
    assert [m for m in loaded if m not in packages] == [
        "repro._lazy",
        "repro.constants",
        "repro.units",
    ]


def _declared_exports(package):
    """``{name: defining module}`` as the package's ``lazy_exports`` call
    lists them."""
    tree = ast.parse(inspect.getsource(package))
    call = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports"
    )
    return {
        name: f"{package.__name__}.{module}"
        for module, names in ast.literal_eval(call.args[1]).items()
        for name in names
    }


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_are_their_definitions(name):
    package = importlib.import_module(name)
    exports = _declared_exports(package)
    assert set(exports) <= set(package.__all__)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed, export
        if export in exports:
            assert value is getattr(importlib.import_module(exports[export]), export), export
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")


def test_the_package_keeps_no_patched_export(monkeypatch):
    # A patch of the defining module shows through the package while it
    # lasts and is gone once undone, also when the package first reads the
    # name during the patch.
    import repro.thermal
    import repro.thermal.selfheating as selfheating

    original = selfheating.self_heating_analysis
    monkeypatch.setattr(selfheating, "self_heating_analysis", lambda *args: None)
    patched = selfheating.self_heating_analysis
    assert repro.thermal.self_heating_analysis is patched
    monkeypatch.undo()
    assert repro.thermal.self_heating_analysis is original
    assert "self_heating_analysis" not in vars(repro.thermal)
