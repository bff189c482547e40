"""Experiment E3 -- Fig. 9: conductivity of SWCNT and MWCNT lines vs copper.

Paper shape: CNT effective conductivity rises with length and, for large
MWCNT diameters and long lines, overtakes narrow (size-effect-limited)
copper; copper's conductivity is length independent.
"""

import numpy as np

from repro.analysis.fig9_conductivity import crossover_length_um, fig9_records
from repro.analysis.report import format_table

LENGTHS_UM = tuple(np.logspace(-2, 2, 13))


def test_fig9_conductivity_vs_length(benchmark):
    records = benchmark(fig9_records, lengths_um=LENGTHS_UM)

    print()
    at_10um = [r for r in records if abs(r["length_um"] - 10.0) < 1e-9]
    print(format_table(at_10um, title="Fig. 9 cut at L = 10 um (conductivity in MS/m)"))

    def series(line):
        return [
            r["conductivity_ms_per_m"]
            for r in sorted(
                (r for r in records if r["line"] == line), key=lambda r: r["length_um"]
            )
        ]

    # CNT conductivity increases with length and saturates; copper stays flat.
    mwcnt = series("MWCNT D=22nm")
    assert all(b >= a for a, b in zip(mwcnt, mwcnt[1:]))
    copper = series("Cu w=20nm")
    assert max(copper) / min(copper) < 1.0001

    # Crossover: the MWCNTs overtake both copper references within the sweep.
    for copper_line in ("Cu w=20nm", "Cu w=100nm"):
        crossover = crossover_length_um(records, "MWCNT D=22nm", copper_line)
        print(f"MWCNT D=22nm overtakes {copper_line} at ~{crossover:g} um")
        assert crossover is not None and crossover <= 100.0

    # Paper remark: conductance per unit area decreases as the diameter grows,
    # so per-area conductivity at long lengths orders SWCNT > MWCNT.
    assert series("SWCNT d=1nm")[-1] > series("MWCNT D=10nm")[-1] > 0
    # In absolute conductance terms (conductivity times cross-section) the
    # larger MWCNT still carries far more current than the small one.
    small_abs = series("MWCNT D=10nm")[-1] * 10.0**2
    large_abs = series("MWCNT D=22nm")[-1] * 22.0**2
    assert large_abs > small_abs
