"""Tests for measurement emulation: TLM, I-V, electromigration, layout, Raman."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.characterization import (
    blacks_lifetime,
    d_over_g_ratio,
    doping_comparison_iv,
    em_stress_test,
    extract_tlm,
    generate_test_layout,
    simulate_iv_sweep,
    simulate_raman_spectrum,
    simulate_tlm_data,
)
from repro.characterization.electromigration import lifetime_comparison
from repro.characterization.iv import saturation_current
from repro.characterization.test_layout import Lithography, StructureKind
from repro.characterization.test_layout import TestStructure as LayoutStructure
from repro.characterization.tlm import TLMMeasurement, tlm_round_trip
from repro.constants import COPPER_EM_CURRENT_DENSITY_LIMIT
from repro.core import MWCNTInterconnect
from repro.units import nm, um


def reference_device() -> MWCNTInterconnect:
    return MWCNTInterconnect(outer_diameter=nm(7.5), length=um(2))


class TestTLM:
    LENGTHS = [um(1), um(2), um(5), um(10), um(20)]

    def test_extraction_recovers_contact_resistance(self):
        extraction, true_contact, true_slope = tlm_round_trip(
            reference_device(), self.LENGTHS, contact_resistance=30e3, noise_fraction=0.005, seed=1
        )
        assert extraction.contact_resistance == pytest.approx(true_contact, rel=0.25)
        assert extraction.resistance_per_length == pytest.approx(true_slope, rel=0.25)
        assert extraction.r_squared > 0.9

    def test_noise_free_extraction_is_nearly_exact(self):
        data = simulate_tlm_data(
            reference_device(), self.LENGTHS, contact_resistance=30e3, noise_fraction=0.0
        )
        extraction = extract_tlm(data)
        assert extraction.r_squared > 0.999

    def test_transfer_length_positive(self):
        extraction, _, _ = tlm_round_trip(reference_device(), self.LENGTHS, seed=2)
        assert extraction.transfer_length() > 0

    def test_confidence_interval_contains_estimate(self):
        extraction, _, _ = tlm_round_trip(reference_device(), self.LENGTHS, seed=3)
        low, high = extraction.confidence_interval_contact()
        assert low <= extraction.contact_resistance <= high

    def test_requires_two_distinct_lengths(self):
        with pytest.raises(ValueError):
            simulate_tlm_data(reference_device(), [um(1)])
        with pytest.raises(ValueError):
            simulate_tlm_data(reference_device(), [um(1), um(1)])
        with pytest.raises(ValueError):
            extract_tlm([TLMMeasurement(um(1), 1e4)])

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            simulate_tlm_data(reference_device(), self.LENGTHS, noise_fraction=-0.1)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestTLMFitMatchesScipy:
    """``extract_tlm`` is ``scipy.stats.linregress`` bit for bit (NaN included)."""

    @staticmethod
    def _assert_matches_linregress(lengths, resistances):
        from scipy import stats

        extraction = extract_tlm(
            [TLMMeasurement(float(x), float(y)) for x, y in zip(lengths, resistances)]
        )
        want = stats.linregress(lengths, resistances)
        assert _bits(extraction.contact_resistance) == _bits(want.intercept)
        assert _bits(extraction.resistance_per_length) == _bits(want.slope)
        assert _bits(extraction.contact_resistance_stderr) == _bits(want.intercept_stderr)
        assert _bits(extraction.resistance_per_length_stderr) == _bits(want.stderr)
        assert _bits(extraction.r_squared) == _bits(want.rvalue**2)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_noisy_fits(self, n):
        for seed in range(20):
            rng = np.random.default_rng([n, seed])
            lengths = np.sort(rng.uniform(0.5, 20.0, n)) * 1e-6
            resistances = (2e4 + 4e9 * lengths) * (1.0 + rng.normal(0.0, 0.05, n))
            self._assert_matches_linregress(lengths, resistances)

    def test_collinear_data_hits_the_r_clip(self):
        clipped = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 13))
            lengths = np.sort(rng.uniform(1.0, 20.0, n)) * 1e-6
            resistances = 2.0e4 + 3.0e9 * lengths
            ssxm, ssxym, _, ssym = np.cov(lengths, resistances, bias=1).flat
            clipped += bool(ssxym / np.sqrt(ssxm * ssym) > 1.0)
            self._assert_matches_linregress(lengths, resistances)
        assert clipped > 0  # the data does reach scipy's clip of r to 1.0

    def test_constant_resistances(self):
        lengths = np.array([1.0, 2.0, 5.0, 10.0]) * 1e-6
        resistances = np.full(4, 1234.5)
        assert np.cov(lengths, resistances, bias=1)[1, 1] == 0.0  # ssym == 0
        self._assert_matches_linregress(lengths, resistances)
        self._assert_matches_linregress(lengths[:2], resistances[:2])


class TestIV:
    def test_low_bias_resistance_matches_model(self):
        device = MWCNTInterconnect(outer_diameter=nm(7.5), length=um(2), contact_resistance=60e3)
        sweep = simulate_iv_sweep(device, max_voltage=0.5, noise_fraction=0.0)
        assert sweep.low_bias_resistance == pytest.approx(device.resistance, rel=0.05)
        assert sweep.survived

    def test_current_saturates_at_high_bias(self):
        device = reference_device()
        sweep = simulate_iv_sweep(device, max_voltage=5.0, noise_fraction=0.0)
        valid = ~np.isnan(sweep.currents)
        assert sweep.currents[valid].max() <= saturation_current(device) * 1.01

    def test_breakdown_occurs_when_limit_is_low(self):
        device = reference_device()
        sweep = simulate_iv_sweep(
            device, max_voltage=3.0, breakdown_current=saturation_current(device) * 0.2
        )
        assert not sweep.survived
        assert np.isnan(sweep.currents[-1])

    def test_doping_comparison_shows_lower_resistance(self):
        comparison = doping_comparison_iv(seed=0)
        assert comparison["doped"].low_bias_resistance < comparison["pristine"].low_bias_resistance

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_iv_sweep(reference_device(), max_voltage=0.0)
        with pytest.raises(ValueError):
            simulate_iv_sweep(reference_device(), n_points=2)


class TestElectromigration:
    def test_copper_lifetime_ten_years_at_reference_conditions(self):
        lifetime = blacks_lifetime(COPPER_EM_CURRENT_DENSITY_LIMIT, 378.0)
        years = lifetime / (365 * 24 * 3600)
        assert years == pytest.approx(10.0, rel=0.05)

    def test_higher_stress_shorter_life(self):
        mild = blacks_lifetime(COPPER_EM_CURRENT_DENSITY_LIMIT, 378.0)
        harsh = blacks_lifetime(10 * COPPER_EM_CURRENT_DENSITY_LIMIT, 378.0)
        assert harsh < mild

    def test_hotter_stress_shorter_life(self):
        cool = blacks_lifetime(COPPER_EM_CURRENT_DENSITY_LIMIT, 350.0)
        hot = blacks_lifetime(COPPER_EM_CURRENT_DENSITY_LIMIT, 420.0)
        assert hot < cool

    def test_cnt_outlives_copper_by_orders_of_magnitude(self):
        comparison = lifetime_comparison()
        assert comparison["cnt"].median_lifetime > 1e3 * comparison["copper"].median_lifetime
        assert comparison["composite"].median_lifetime > comparison["copper"].median_lifetime

    def test_immediate_failure_beyond_breakdown(self):
        result = em_stress_test("cnt", 1e14)
        assert result.immediate_failure
        assert result.lifetime_years == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            blacks_lifetime(0.0, 378.0)
        with pytest.raises(ValueError):
            blacks_lifetime(1e10, 0.0)
        with pytest.raises(ValueError):
            em_stress_test("adamantium", 1e10)
        with pytest.raises(ValueError):
            em_stress_test("composite", 1e10, cnt_fraction=0.0)


class TestTestLayout:
    def test_layout_contains_all_structure_kinds(self):
        layout = generate_test_layout()
        kinds = {structure.kind for structure in layout.structures}
        assert kinds == set(StructureKind)

    def test_50nm_lines_use_ebeam(self):
        layout = generate_test_layout()
        assert layout.minimum_width() == pytest.approx(50e-9)
        narrow = [s for s in layout.structures if s.width == pytest.approx(50e-9)]
        assert all(s.lithography is Lithography.EBEAM for s in narrow)
        assert len(layout.ebeam_structures()) == len(narrow)

    def test_single_lines_cover_width_length_angle_grid(self):
        layout = generate_test_layout(widths=(100e-9,), lengths=(1e-6, 2e-6), angles=(0.0, 90.0))
        singles = layout.by_kind(StructureKind.SINGLE_LINE)
        assert len(singles) == 4

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            LayoutStructure("bad", StructureKind.SINGLE_LINE, width=0.0, length=1e-6)
        with pytest.raises(ValueError):
            LayoutStructure("bad", StructureKind.COMB, width=1e-7, length=1e-6, n_elements=0)
        with pytest.raises(ValueError):
            generate_test_layout(widths=())

    def test_structure_count_consistent(self):
        layout = generate_test_layout()
        assert layout.n_structures == len(layout.structures)


class TestRaman:
    def test_d_over_g_tracks_quality(self):
        good = simulate_raman_spectrum(quality=0.95, noise=0.0)
        bad = simulate_raman_spectrum(quality=0.3, noise=0.0)
        assert d_over_g_ratio(bad) > d_over_g_ratio(good)

    def test_extraction_matches_target(self):
        from repro.process.defects import raman_d_over_g

        spectrum = simulate_raman_spectrum(quality=0.6, noise=0.0)
        # The D and G Lorentzian tails overlap slightly, so the fit-free peak
        # estimator reads a few percent high.
        assert d_over_g_ratio(spectrum) == pytest.approx(raman_d_over_g(0.6), rel=0.10)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_raman_spectrum(0.5, noise=-0.1)
        with pytest.raises(ValueError):
            simulate_raman_spectrum(0.5, n_points=10)


class TestCharacterizationPropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(contact=st.floats(min_value=1e3, max_value=500e3))
    def test_tlm_intercept_tracks_contact_resistance(self, contact):
        extraction, true_contact, _ = tlm_round_trip(
            reference_device(),
            [um(1), um(2), um(5), um(10)],
            contact_resistance=contact,
            noise_fraction=0.0,
        )
        assert extraction.contact_resistance == pytest.approx(true_contact, rel=0.05)

    @settings(max_examples=15, deadline=None)
    @given(density=st.floats(min_value=1e9, max_value=1e12))
    def test_blacks_equation_monotone_in_stress(self, density):
        assert blacks_lifetime(density, 378.0) >= blacks_lifetime(density * 2, 378.0)
