"""Experiment E2 -- Fig. 8b/c: iodine doping of SWCNT(7,7).

Paper claim: the pristine armchair tube conducts 0.155 mS (2 channels); after
iodine (p-type) doping the Fermi level moves down and the ballistic
conductance rises to 0.387 mS (5 channels).
"""

import pytest

from repro.analysis.fig8_conductance import fig8c_result
from repro.analysis.paper_reference import PAPER_REFERENCE
from repro.analysis.report import format_comparison


def test_fig8c_doped_swcnt77(benchmark):
    result = benchmark(fig8c_result, n_k=201)

    print()
    print(format_comparison(
        "pristine SWCNT(7,7) conductance",
        result.pristine_conductance_ms,
        PAPER_REFERENCE["pristine_swcnt77_conductance_ms"],
        unit="mS",
    ))
    print(format_comparison(
        "doped SWCNT(7,7) conductance",
        result.doped_conductance_ms,
        PAPER_REFERENCE["doped_swcnt77_conductance_ms"],
        unit="mS",
    ))
    print(
        f"rigid-band Fermi shift used: {result.fermi_shift_ev:.2f} eV "
        f"(paper DFT: {PAPER_REFERENCE['iodine_fermi_shift_ev']} eV; see EXPERIMENTS.md)"
    )

    # The conductance levels (the measurable the paper reports) are reproduced.
    assert result.pristine_conductance_ms == pytest.approx(0.155, rel=0.03)
    assert result.doped_conductance_ms == pytest.approx(0.387, rel=0.05)
    # Doping is p-type (Fermi level moves down) and the tube stays gapless.
    assert result.fermi_shift_ev < 0
    assert result.band_gap_ev == pytest.approx(0.0, abs=1e-6)
    # The transmission staircase never decreases away from the Fermi level.
    centre = result.pristine_transmission[len(result.pristine_transmission) // 2]
    assert result.pristine_transmission.max() > centre
