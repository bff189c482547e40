#!/usr/bin/env python
"""Fig. 9: conductivity of SWCNT and MWCNT lines versus copper.

Sweeps the interconnect length from 10 nm to 100 um and prints the effective
conductivity of a 1 nm SWCNT, 10 nm and 22 nm MWCNTs and two copper lines
(20 nm and 100 nm wide, with size-effect resistivity).  The crossover --
CNTs overtake scaled copper for long enough lines -- is highlighted.

Run with ``python examples/conductivity_comparison.py``.
"""

import numpy as np

from repro.analysis.fig9_conductivity import crossover_length_um, fig9_records
from repro.analysis.report import format_table


def main() -> None:
    lengths = tuple(np.logspace(-2, 2, 9))  # 10 nm .. 100 um
    records = fig9_records(lengths_um=lengths)

    # Pivot into one row per length for a compact table.
    lines = sorted({record["line"] for record in records})
    rows = []
    for length in lengths:
        row = {"length_um": length}
        for line in lines:
            match = next(
                r for r in records if r["line"] == line and r["length_um"] == length
            )
            row[line] = match["conductivity_ms_per_m"]
        rows.append(row)
    print(format_table(rows, title="Effective conductivity in MS/m (Fig. 9 reproduction)"))

    print()
    for cnt_line in ("MWCNT D=22nm", "MWCNT D=10nm", "SWCNT d=1nm"):
        for copper_line in ("Cu w=20nm", "Cu w=100nm"):
            crossover = crossover_length_um(records, cnt_line, copper_line)
            if crossover is None:
                print(f"{cnt_line} never overtakes {copper_line} in this length range")
            else:
                print(f"{cnt_line} overtakes {copper_line} at L ~ {crossover:g} um")

    print()
    print("Shape to compare against the paper's Fig. 9: CNT conductivity rises with")
    print("length (the fixed quantum/contact resistance is amortised) while copper is")
    print("length independent but degraded at narrow widths; large-diameter MWCNTs win")
    print("for long global-level wires.")


if __name__ == "__main__":
    main()
