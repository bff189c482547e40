"""Experiment E1 -- Fig. 8a: ballistic conductance vs diameter of SWCNTs.

Paper claim: the number of conducting channels ``Nc = G_bal / G0`` stays
close to 2 for metallic tubes regardless of diameter and chirality, so the
conductance per unit area *decreases* with diameter.
"""

import numpy as np

from repro.analysis.fig8_conductance import fig8a_records
from repro.analysis.report import format_table


def test_fig8a_conductance_vs_diameter(benchmark):
    records = benchmark(fig8a_records, diameter_range_nm=(0.5, 2.2), n_k=101)

    print()
    print(format_table(records, title="Fig. 8a -- ballistic conductance vs diameter (300 K)"))

    channels = np.array([record["channels"] for record in records])
    diameters = np.array([record["diameter_nm"] for record in records])
    conductance_per_area = np.array(
        [record["conductance_ms"] / record["diameter_nm"] ** 2 for record in records]
    )

    # Paper shape 1: Nc ~ 2 for every metallic tube, any family or diameter.
    assert np.all(np.abs(channels - 2.0) < 0.15)
    # Paper shape 2: both families present across the swept diameter range.
    assert {record["family"] for record in records} == {"armchair", "zigzag"}
    # Paper shape 3: conductance per unit area decreases as the diameter grows.
    order = np.argsort(diameters)
    assert conductance_per_area[order][0] > conductance_per_area[order][-1]
