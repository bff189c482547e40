"""Ablation A1 -- delay metric: full MNA transient vs Elmore estimate.

DESIGN.md flags the delay metric as a design choice worth ablating: the
Fig. 12 conclusions must not depend on whether the propagation delay comes
from the transient circuit simulation or from the closed-form Elmore
estimate.
"""

import pytest

from repro.analysis.fig12_delay_ratio import DelayRatioStudy, fig12_records, summarize_at_length


def _study(use_transient: bool) -> DelayRatioStudy:
    return DelayRatioStudy(
        diameters_nm=(10.0, 14.0, 22.0),
        lengths_um=(500.0,),
        channel_counts=(2.0, 10.0),
        use_transient=use_transient,
        n_segments=15,
    )


def test_ablation_delay_metric(once, benchmark):
    transient = summarize_at_length(once(benchmark, fig12_records, _study(True)), 500.0, 10.0)
    elmore = summarize_at_length(fig12_records(_study(False)), 500.0, 10.0)

    print()
    for diameter in sorted(transient):
        print(
            f"D = {diameter:g} nm: reduction transient {100*transient[diameter]:.1f} % "
            f"vs Elmore {100*elmore[diameter]:.1f} %"
        )

    # Both metrics preserve the diameter ordering...
    assert transient[10.0] > transient[14.0] > transient[22.0]
    assert elmore[10.0] > elmore[14.0] > elmore[22.0]
    # ...and agree within a few percentage points on the absolute reduction.
    for diameter in transient:
        assert transient[diameter] == pytest.approx(elmore[diameter], abs=0.04)
