"""Experiment E5 -- Figs. 11-12: delay ratio of doped vs pristine MWCNT interconnects.

Paper claims to reproduce in shape (and approximately in magnitude):

* doping (Nc = 10) reduces the propagation delay by ~10 / 5 / 2 % at
  L = 500 um for outer diameters of 10 / 14 / 22 nm;
* the benefit shrinks with diameter (more shells = more channels anyway);
* the benefit grows with interconnect length.

The full transient-MNA benchmark is timed for the 500 um / Nc = 10 corner;
the length sweep uses the fast Elmore metric (the delay-metric ablation bench
shows the two agree).
"""

import pytest

from repro.analysis.fig12_delay_ratio import (
    DelayRatioStudy,
    doping_benefit_vs_length,
    fig12_records,
    summarize_at_length,
)
from repro.analysis.paper_reference import PAPER_REFERENCE
from repro.analysis.report import format_table

TRANSIENT_STUDY = DelayRatioStudy(
    lengths_um=(500.0,),
    channel_counts=(2.0, 10.0),
    use_transient=True,
    n_segments=20,
)

SWEEP_STUDY = DelayRatioStudy(
    lengths_um=(10.0, 50.0, 100.0, 200.0, 500.0, 1000.0),
    channel_counts=(2.0, 4.0, 6.0, 8.0, 10.0),
    use_transient=False,
)


def test_fig12_delay_reduction_at_500um(once, benchmark):
    records = once(benchmark, fig12_records, TRANSIENT_STUDY)
    summary = summarize_at_length(records, length_um=500.0, channels=10.0)
    targets = PAPER_REFERENCE["delay_reduction_at_500um"]

    print()
    rows = [
        {
            "diameter_nm": diameter,
            "measured_reduction_%": 100.0 * summary[diameter],
            "paper_reduction_%": 100.0 * targets[diameter],
        }
        for diameter in sorted(summary)
    ]
    print(format_table(rows, title="Fig. 12 -- delay reduction at L = 500 um, Nc = 10 (transient MNA)"))

    # Ordering: smaller diameter benefits more from doping.
    assert summary[10.0] > summary[14.0] > summary[22.0]
    # Magnitudes: within a few percentage points of the paper's 10/5/2 %.
    for diameter, target in targets.items():
        assert summary[diameter] == pytest.approx(target, abs=0.05)


def test_fig12_full_sweep_shape(benchmark):
    records = benchmark(fig12_records, SWEEP_STUDY)

    print()
    at_500 = [r for r in records if r["length_um"] == 500.0]
    print(format_table(
        at_500,
        columns=["diameter_nm", "channels_per_shell", "delay_ratio", "delay_reduction_percent"],
        title="Fig. 12 -- full doping sweep at 500 um (Elmore metric)",
    ))

    # Delay ratio decreases monotonically with the doping level for every
    # diameter (more channels never hurt at these lengths).
    for diameter in SWEEP_STUDY.diameters_nm:
        ratios = [
            r["delay_ratio"]
            for r in sorted(
                (r for r in at_500 if r["diameter_nm"] == diameter),
                key=lambda r: r["channels_per_shell"],
            )
        ]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))

    # Doping becomes more effective as the line gets longer (paper's last
    # claim).  A 0.5 % tolerance absorbs the tiny capacitance-driven wobble at
    # very short lengths where doping barely matters at all.
    for diameter in SWEEP_STUDY.diameters_nm:
        series = doping_benefit_vs_length(records, diameter_nm=diameter, channels=10.0)
        reductions = [value for _, value in series]
        assert all(b >= a - 0.005 for a, b in zip(reductions, reductions[1:]))
        assert reductions[-1] > reductions[0]
