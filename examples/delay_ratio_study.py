#!/usr/bin/env python
"""The paper's headline experiment (Figs. 11-12): doped MWCNT delay ratios.

Drives MWCNT interconnects of 10 / 14 / 22 nm outer diameter with CMOS 45 nm
inverters, sweeps the doping level (channels per shell) and the interconnect
length, and prints the delay ratio relative to the pristine line -- the data
behind Fig. 12.  The paper's quoted numbers (10 / 5 / 2 % delay reduction at
L = 500 um for D = 10 / 14 / 22 nm) are printed next to the measured ones.

Run with ``python examples/delay_ratio_study.py [--fast]``; ``--fast`` uses
the Elmore delay metric instead of the full transient simulation.
"""

import argparse

from repro.analysis.fig12_delay_ratio import (
    DelayRatioStudy,
    doping_benefit_vs_length,
    fig12_records,
    summarize_at_length,
)
from repro.analysis.paper_reference import PAPER_REFERENCE
from repro.analysis.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use the Elmore delay estimate instead of the transient simulation",
    )
    args = parser.parse_args()

    study = DelayRatioStudy(
        lengths_um=(50.0, 100.0, 200.0, 500.0, 1000.0),
        channel_counts=(2.0, 4.0, 6.0, 8.0, 10.0),
        use_transient=not args.fast,
    )
    print(
        f"Running the Fig. 12 study ({'Elmore' if args.fast else 'transient MNA'} delay metric, "
        f"contact resistance {study.contact_resistance/1e3:.0f} kOhm per line)..."
    )
    records = fig12_records(study)

    at_500 = [r for r in records if r["length_um"] == 500.0]
    print()
    print(format_table(at_500, columns=[
        "diameter_nm", "channels_per_shell", "delay_ps", "delay_ratio", "delay_reduction_percent",
    ], title="Delay ratio at L = 500 um (Fig. 12 cut)"))

    print()
    summary = summarize_at_length(records, length_um=500.0, channels=10.0)
    targets = PAPER_REFERENCE["delay_reduction_at_500um"]
    rows = [
        {
            "diameter_nm": diameter,
            "measured_reduction_%": 100.0 * summary[diameter],
            "paper_reduction_%": 100.0 * targets[diameter],
        }
        for diameter in sorted(summary)
    ]
    print(format_table(rows, title="Delay reduction at 500 um, Nc = 10 (paper vs measured)"))

    print()
    for diameter in study.diameters_nm:
        series = doping_benefit_vs_length(records, diameter_nm=diameter, channels=10.0)
        trend = " -> ".join(f"{100*value:.1f}%@{length:g}um" for length, value in series)
        print(f"D = {diameter:g} nm: doping benefit vs length: {trend}")
    print()
    print("Observation (matches the paper): doping helps more for longer lines and")
    print("for smaller diameters (fewer shells to begin with).")


if __name__ == "__main__":
    main()
