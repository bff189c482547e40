"""Dense-vs-sparse MNA parity for every registered circuit-backed experiment.

Any experiment tagged ``"circuit"`` ultimately runs through the MNA solver,
so running it with every circuit in sparse band storage (the band threshold
lowered to 0) must produce ResultSets that agree with the default run,
whose small circuits stay dense, to solver precision.  The parametrisation
discovers the circuit-backed experiments from the registry, so a future PR
that registers a new one is automatically pulled in (and reminded, via the
skip message, to provide fast parameters here).
"""

import math

import pytest

from repro.api import Engine
from repro.api.experiment import ensure_registered, list_experiments
from repro.circuit import mna

PARITY_RTOL = 1.0e-9

# Small-but-representative parameters per circuit-backed experiment: the
# parity property does not depend on problem size, so keep the test fast.
FAST_PARAMS = {
    "fig12": {
        "diameters_nm": (10.0,),
        "lengths_um": (50.0,),
        "channel_counts": (2.0, 6.0),
        "n_segments": 8,
        "use_transient": True,
    },
    "crosstalk": {
        "n_segments": 5,
        "n_time_steps": 150,
        "resolution": 2,
        "line_length_um": 20.0,
    },
    "energy": {
        "lengths_um": (100.0, 500.0),
    },
    # Composite experiment: the engine resolves the upstream `variability`
    # stage (pure Monte Carlo, no MNA) and injects it; only the downstream
    # delay corners exercise the solver.
    "variability_delay": {
        "length_um": 5.0,
        "n_segments": 4,
        "n_time_steps": 120,
    },
}


def _circuit_experiment_names() -> list[str]:
    ensure_registered()
    return [experiment.name for experiment in list_experiments(tag="circuit")]


def _records_close(dense: list[dict], band: list[dict]) -> None:
    assert len(dense) == len(band)
    for row_dense, row_band in zip(dense, band):
        assert row_dense.keys() == row_band.keys()
        for key, value in row_dense.items():
            other = row_band[key]
            if isinstance(value, float) and isinstance(other, float):
                if math.isnan(value):
                    assert math.isnan(other)
                else:
                    assert other == pytest.approx(value, rel=PARITY_RTOL, abs=1e-15), key
            else:
                assert other == value, key


@pytest.mark.parametrize("name", _circuit_experiment_names())
def test_dense_and_sparse_backends_agree(name, monkeypatch):
    if name not in FAST_PARAMS:
        pytest.fail(
            f"experiment {name!r} is tagged 'circuit' but has no fast parameters "
            "in FAST_PARAMS; add a small configuration so its dense/band "
            "parity is covered"
        )
    params = FAST_PARAMS[name]
    dense = Engine().run(name, **params)
    monkeypatch.setattr(mna, "BAND_SIZE_THRESHOLD", 0)
    band = Engine().run(name, **params)
    _records_close(dense.to_records(), band.to_records())


def test_registry_has_circuit_backed_experiments():
    """The parametrisation above must never silently become empty."""
    assert set(_circuit_experiment_names()) >= {"fig12", "crosstalk", "energy"}
