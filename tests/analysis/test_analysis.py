"""Tests for the experiment drivers (figures/tables reproduction) and reporting."""

import numpy as np
import pytest

from repro.analysis import (
    PAPER_REFERENCE,
    ampacity_table,
    density_table,
    format_table,
    fig8c_result,
    fig9_records,
    fig10_capacitance_summary,
    fig10_resistance_summary,
    fig12_records,
    summarize_at_length,
    thermal_table,
)
from repro.analysis.fig8_conductance import fig8a_records
from repro.analysis.fig9_conductivity import crossover_length_um
from repro.analysis.fig10_tcad import fig10_m1_m2_summary
from repro.analysis.fig12_delay_ratio import (
    DelayRatioStudy,
    doping_benefit_vs_length,
)
from repro.analysis.paper_reference import reference
from repro.analysis.report import format_comparison, write_csv
from repro.analysis.tables import doping_resistance_table


class TestPaperReference:
    def test_lookup(self):
        assert reference("quantum_resistance_kohm") == pytest.approx(12.9)
        with pytest.raises(KeyError):
            reference("nonexistent")

    def test_delay_reference_shape(self):
        targets = PAPER_REFERENCE["delay_reduction_at_500um"]
        assert targets[10.0] > targets[14.0] > targets[22.0]


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1.0, "b": "x"}, {"a": 123456.0, "b": "yy"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([], title="empty") == "empty"

    def test_format_comparison(self):
        text = format_comparison("G", 0.1549, 0.155, unit="mS")
        assert "0.1549" in text and "0.155" in text

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([{"a": 1, "b": 2.5}], str(path))
        content = path.read_text()
        assert "a,b" in content and "1,2.5" in content
        with pytest.raises(ValueError):
            write_csv([], str(path))


class TestFig8Drivers:
    def test_fig8a_metallic_tubes_cluster_at_two_channels(self):
        records = fig8a_records(diameter_range_nm=(0.6, 1.6), n_k=101)
        channels = np.array([r["channels"] for r in records])
        assert np.allclose(channels, 2.0, atol=0.1)
        families = {r["family"] for r in records}
        assert families == {"armchair", "zigzag"}

    def test_fig8c_reproduces_conductance_values(self):
        result = fig8c_result(n_k=201)
        assert result.pristine_conductance_ms == pytest.approx(
            PAPER_REFERENCE["pristine_swcnt77_conductance_ms"], rel=0.03
        )
        assert result.doped_conductance_ms == pytest.approx(
            PAPER_REFERENCE["doped_swcnt77_conductance_ms"], rel=0.05
        )
        assert result.fermi_shift_ev < 0
        assert result.band_gap_ev == pytest.approx(0.0, abs=1e-6)
        assert result.energies_ev.shape == result.pristine_transmission.shape


class TestFig9Driver:
    def test_cnt_conductivity_increases_with_length(self):
        records = fig9_records(lengths_um=(0.1, 1.0, 10.0, 100.0))
        mwcnt = [r for r in records if r["line"] == "MWCNT D=22nm"]
        values = [r["conductivity_ms_per_m"] for r in sorted(mwcnt, key=lambda r: r["length_um"])]
        assert values == sorted(values)

    def test_copper_conductivity_length_independent(self):
        records = fig9_records(lengths_um=(0.1, 1.0, 10.0))
        copper = [r for r in records if r["line"] == "Cu w=20nm"]
        values = [r["conductivity_ms_per_m"] for r in copper]
        assert max(values) == pytest.approx(min(values), rel=1e-9)

    def test_long_mwcnt_beats_narrow_copper(self):
        records = fig9_records(lengths_um=(0.01, 0.1, 1.0, 10.0, 100.0))
        crossover = crossover_length_um(records, "MWCNT D=22nm", "Cu w=20nm")
        assert crossover is not None
        assert crossover <= 100.0

    def test_copper_size_effect_ablation(self):
        with_effects = fig9_records(lengths_um=(1.0,), include_cu_size_effects=True)
        without = fig9_records(lengths_um=(1.0,), include_cu_size_effects=False)
        cu_with = [r for r in with_effects if r["kind"] == "Cu"][0]
        cu_without = [r for r in without if r["kind"] == "Cu"][0]
        assert cu_without["conductivity_ms_per_m"] > cu_with["conductivity_ms_per_m"]


class TestFig10Drivers:
    def test_capacitance_extraction_summary(self):
        result = fig10_capacitance_summary(resolution=3)
        assert result["is_physical"]
        assert 0.0 < result["coupling_fraction"] < 1.0
        assert result["victim_total_af_per_um"] > 0
        assert ".end" in result["spice_netlist"]

    def test_m1_m2_crossing_coupling(self):
        result = fig10_m1_m2_summary(resolution=2)
        assert result["is_physical"]
        assert result["m1_m2_coupling_aF"] > 0
        assert result["coupling_fraction"] < 1.0

    def test_via_resistance_extraction(self):
        result = fig10_resistance_summary(resolution_nm=10.0)
        assert result["resistance_ohm"] > 0
        assert result["hotspot_factor"] > 1.0


class TestFig12Driver:
    @pytest.fixture(scope="class")
    def fast_records(self):
        study = DelayRatioStudy(
            lengths_um=(100.0, 500.0),
            channel_counts=(2.0, 10.0),
            use_transient=False,
        )
        return fig12_records(study)

    def test_summary_matches_paper_ordering(self, fast_records):
        summary = summarize_at_length(fast_records, length_um=500.0, channels=10.0)
        assert set(summary) == {10.0, 14.0, 22.0}
        assert summary[10.0] > summary[14.0] > summary[22.0]

    def test_reduction_magnitudes_close_to_paper(self, fast_records):
        summary = summarize_at_length(fast_records, length_um=500.0, channels=10.0)
        targets = PAPER_REFERENCE["delay_reduction_at_500um"]
        for diameter, target in targets.items():
            assert summary[diameter] == pytest.approx(target, abs=0.05)

    def test_doping_more_effective_for_longer_lines(self, fast_records):
        series = doping_benefit_vs_length(fast_records, diameter_nm=10.0, channels=10.0)
        reductions = [value for _, value in series]
        assert reductions == sorted(reductions)

    def test_pristine_ratio_is_unity(self, fast_records):
        pristine = [r for r in fast_records if r["channels_per_shell"] == 2.0]
        assert all(r["delay_ratio"] == pytest.approx(1.0) for r in pristine)

    def test_transient_and_elmore_agree_on_ordering(self):
        study_fast = DelayRatioStudy(
            diameters_nm=(10.0, 22.0),
            lengths_um=(500.0,),
            channel_counts=(2.0, 10.0),
            use_transient=False,
        )
        study_slow = DelayRatioStudy(
            diameters_nm=(10.0, 22.0),
            lengths_um=(500.0,),
            channel_counts=(2.0, 10.0),
            use_transient=True,
            n_segments=10,
        )
        fast = summarize_at_length(fig12_records(study_fast), 500.0, 10.0)
        slow = summarize_at_length(fig12_records(study_slow), 500.0, 10.0)
        assert (fast[10.0] > fast[22.0]) and (slow[10.0] > slow[22.0])
        # The two delay metrics agree within a few percentage points.
        assert fast[10.0] == pytest.approx(slow[10.0], abs=0.04)

    def test_study_validation(self):
        with pytest.raises(ValueError):
            DelayRatioStudy(channel_counts=(4.0, 10.0))
        with pytest.raises(ValueError):
            DelayRatioStudy(contact_resistance=-1.0)


class TestTables:
    def test_ampacity_table_rows(self):
        rows = ampacity_table()
        assert len(rows) == 4
        cu = rows[0]
        cnt = rows[1]
        assert cu["max_current_uA"] == pytest.approx(50.0, rel=0.01)
        assert cnt["max_current_density_A_per_cm2"] == pytest.approx(1e9, rel=0.1)

    def test_thermal_table_rows(self):
        rows = thermal_table()
        conductivity_row = rows[0]
        assert conductivity_row["cnt"] > conductivity_row["copper"]
        assert rows[1]["cnt"] > 1.0

    def test_density_table_rows(self):
        rows = density_table()
        labels = [row["structure"] for row in rows]
        assert any("minimum density" in label for label in labels)
        minimum = rows[1]
        packed = rows[2]
        assert packed["resistance_ohm"] < minimum["resistance_ohm"]

    def test_doping_resistance_table(self):
        rows = doping_resistance_table(lengths_um=(1.0, 100.0))
        assert all(row["doped_kohm"] < row["pristine_kohm"] for row in rows)
        assert all(row["improvement"] > 1.0 for row in rows)
