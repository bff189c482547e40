"""Shared configuration of the benchmark harness.

Every ``bench_*.py`` module regenerates one figure or table of the paper
(see the experiment index in DESIGN.md) and is written as a pytest-benchmark
test: the ``benchmark`` fixture times the experiment driver, and plain
assertions check that the *shape* of the result matches the paper
(orderings, approximate factors, crossovers).  pytest collects only
``test_*.py`` files by default, so name the modules explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q
"""

import pytest


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    """Fixture exposing :func:`run_once` to the benchmark modules."""
    return run_once
