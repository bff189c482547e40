"""Smoke test of the benchmark at tiny sizes: a few ops per workload, the
``paper`` pass cut to its cheap experiments.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os

import pytest

import perf_workloads
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
CHEAP_PAPER = ["em_lifetime", "fig9", "table_density", "tlm"]
COUNTS = ("_calls", "api.cache_hit_ratio")


def tiny_run(name, trace, seed=1):
    workload = (
        perf_workloads.Paper(experiments=CHEAP_PAPER) if name == "paper"
        else perf_workloads.WORKLOADS[name]()
    )
    return run.run_benchmark(name, seed, 0, trace, n_ops=4, workload=workload, setup_spawns=1)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload with the same seed."""
    return {name: (tiny_run(name, 1), tiny_run(name, 1)) for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(name):
    result = tiny_run(name, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_layer_metrics_emitted_with_units(traced, name):
    result = traced[name][0]
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly(traced, name):
    first, second = (
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNTS)}
        for r in traced[name]
    )
    assert first == second


def test_seed_fixes_the_op_sequence():
    workload = perf_workloads.ServiceJobs()
    assert workload.plan(7, 12) == workload.plan(7, 12)
    assert workload.plan(7, 12) != workload.plan(8, 12)


def test_paper_pass_is_every_experiment_in_registry_order():
    from repro.api import list_experiments

    names = [e.name for e in list_experiments()]
    assert perf_workloads.Paper().plan(1) == perf_workloads.Paper().plan(2) == names
    with open(perf_workloads.MANIFEST) as handle:
        assert sorted(json.load(handle)) == sorted(names)
