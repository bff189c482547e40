"""Engine fan-out baseline: serial vs parallel sweep execution.

Times the same Fig. 12 contact-resistance sweep (MNA transient mode,
8 points) through the experiment engine's serial and process-pool
executors, so future scaling PRs have a like-for-like perf baseline::

    pytest benchmarks/bench_engine_parallel.py --benchmark-only

The hard guarantee checked here is *parity*: every executor must return a
record-for-record identical ResultSet.  Speedup is reported by the
benchmark timings but deliberately not asserted -- it depends on the host
(on a single-core CI runner the pools only add dispatch overhead; the
process pool additionally pays worker startup).
"""

import pytest

from repro.api import Engine, SweepSpec

SPEC = SweepSpec.grid(
    contact_resistance=[50e3, 100e3, 150e3, 200e3, 250e3, 300e3, 400e3, 500e3]
)
BASE_PARAMS = {
    "diameters_nm": (10.0,),
    "lengths_um": (100.0, 500.0),
    "channel_counts": (2.0, 10.0),
    "use_transient": True,
    "n_segments": 10,
}


def _sweep(executor: str, max_workers: int | None = None):
    engine = Engine(executor=executor, max_workers=max_workers)
    return engine.sweep("fig12", SPEC, base_params=BASE_PARAMS)


@pytest.fixture(scope="module")
def serial_reference():
    return _sweep("serial")


def test_engine_sweep_serial(once, benchmark):
    result = once(benchmark, _sweep, "serial")
    assert len(result) == len(SPEC) * 1 * 2 * 2  # points x D x L x Nc
    assert result.meta["executor"] == "serial"


def test_engine_sweep_process_pool(once, benchmark, serial_reference):
    result = once(benchmark, _sweep, "process", 4)
    assert result == serial_reference


def test_sweep_point_caching_amortises_rerun(once, benchmark, tmp_path):
    """Second sweep through a warm cache must be pure cache hits."""
    warm = Engine(cache_dir=str(tmp_path))
    warm.sweep("fig12", SPEC, base_params=BASE_PARAMS)

    engine = Engine(cache_dir=str(tmp_path))
    result = once(benchmark, engine.sweep, "fig12", SPEC, base_params=BASE_PARAMS)
    assert engine.cache_hits == len(SPEC)
    assert engine.cache_misses == 0
    assert result == warm.sweep("fig12", SPEC, base_params=BASE_PARAMS)
