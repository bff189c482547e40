"""The sorted band-crossing count against the per-band sign/diff oracle."""

import numpy as np
import pytest

from crossings_reference import crossings_per_energy_reference

from repro.atomistic import Chirality, channels_at_energy, compute_band_structure
from repro.atomistic.transmission import _crossings_per_energy


def _random_case(rng: np.random.Generator, integer_valued: bool):
    """One random band set and probes that hit band values, ties and infinities."""
    n_bands = int(rng.integers(1, 6))
    n_k = int(rng.integers(1, 12))
    if integer_valued:
        # Few distinct levels: many ties, flat runs and touching extrema.
        bands = rng.integers(-3, 4, size=(n_bands, n_k)).astype(float)
    else:
        bands = rng.normal(size=(n_bands, n_k))
    on_band = rng.choice(bands.ravel(), size=int(rng.integers(1, 8)))
    probes = np.concatenate(
        [on_band, rng.normal(scale=2.0, size=4), np.arange(-4.0, 5.0), [np.inf, -np.inf]]
    )
    return bands, rng.permutation(probes)


@pytest.mark.parametrize("integer_valued", [True, False], ids=["integer", "real"])
def test_sorted_count_matches_oracle_on_random_bands(integer_valued):
    rng = np.random.default_rng(20260 + integer_valued)
    for _ in range(1500):
        bands, probes = _random_case(rng, integer_valued)
        counted = _crossings_per_energy(bands, probes)
        expected = crossings_per_energy_reference(bands, probes)
        assert counted.dtype.kind == "i"
        np.testing.assert_array_equal(counted, expected)


@pytest.mark.parametrize(
    "chirality, n_k", [(Chirality(7, 7), 301), (Chirality(10, 0), 201)], ids=["armchair", "zigzag"]
)
def test_sorted_count_matches_oracle_on_swcnt_bands(chirality, n_k):
    bands = compute_band_structure(chirality, n_k=n_k)
    e_min, e_max = bands.energy_window()
    rng = np.random.default_rng(7)
    probes = np.concatenate(
        [
            np.linspace(e_min - 0.5, e_max + 0.5, 601),
            rng.choice(bands.energies.ravel(), size=200),
            [0.0, np.inf, -np.inf],
        ]
    )
    np.testing.assert_array_equal(
        _crossings_per_energy(bands.energies, probes),
        crossings_per_energy_reference(bands.energies, probes),
    )


class TestProbeValidation:
    def test_nan_probe_raises(self):
        # The oracle reports every segment as a crossing on a NaN probe (2 on
        # a 3-point band); a NaN energy has no channel count, so it is an error.
        band = np.array([[0.0, 1.0, 2.0]])
        assert crossings_per_energy_reference(band, np.array([np.nan]))[0] == 2
        bands = compute_band_structure(Chirality(7, 7), n_k=51)
        with pytest.raises(ValueError, match="NaN"):
            channels_at_energy(bands, np.nan)
        with pytest.raises(ValueError, match="NaN"):
            channels_at_energy(bands, np.array([0.0, np.nan]))

    def test_infinite_probes_have_no_channels(self):
        bands = compute_band_structure(Chirality(7, 7), n_k=51)
        np.testing.assert_array_equal(
            channels_at_energy(bands, np.array([np.inf, -np.inf])), [0, 0]
        )
