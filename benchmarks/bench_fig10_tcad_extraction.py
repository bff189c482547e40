"""Experiment E4 -- Fig. 10: TCAD capacitance (crosstalk) and resistance (hot-spots).

Paper shape: the field solver exposes substantial line-to-line coupling at
the 14 nm node (Fig. 10a) and current crowding inside vias (Fig. 10b), and
exports SPICE-like RC netlists for circuit simulation.
"""

from repro.analysis.fig10_tcad import (
    fig10_capacitance_summary,
    fig10_m1_m2_summary,
    fig10_resistance_summary,
)


def test_fig10a_crosstalk_capacitance(benchmark):
    result = benchmark(fig10_capacitance_summary, resolution=4)
    print()
    print(
        f"victim total C = {result['victim_total_af_per_um']:.1f} aF/um, "
        f"coupling fraction = {result['coupling_fraction']:.2f}"
    )
    assert result["is_physical"]
    # Dense 14 nm-pitch wiring: a large share of the victim capacitance couples
    # to the neighbouring lines rather than to ground -- the crosstalk message.
    assert 0.3 < result["coupling_fraction"] < 1.0
    assert 10.0 < result["victim_total_af_per_um"] < 500.0
    assert ".end" in result["spice_netlist"]


def test_fig10a_m1_m2_coupling(benchmark):
    result = benchmark(fig10_m1_m2_summary, resolution=2)
    print()
    print(
        f"M1-M2 coupling = {result['m1_m2_coupling_aF']:.3f} aF "
        f"({100*result['coupling_fraction']:.1f} % of M1 total)"
    )
    assert result["is_physical"]
    assert result["m1_m2_coupling_aF"] > 0
    assert result["coupling_fraction"] < 0.9


def test_fig10b_via_current_crowding(benchmark):
    result = benchmark(fig10_resistance_summary, resolution_nm=7.5)
    print()
    print(
        f"30 nm via: R = {result['resistance_ohm']:.2f} Ohm, "
        f"hot-spot factor = {result['hotspot_factor']:.1f}"
    )
    assert result["resistance_ohm"] > 0
    # Current crowding at the via: the peak density is well above the average.
    assert result["hotspot_factor"] > 1.5
