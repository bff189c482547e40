#!/usr/bin/env python
"""Fig. 10: TCAD-style RC extraction with the finite-difference field solver.

Three extractions mirroring the paper's Section III.B:

1. a 2-D cross-section of three parallel 14 nm-node lines over a ground plane
   (crosstalk capacitance matrix, Fig. 10a),
2. a 3-D M1/M2 crossing (inter-level coupling),
3. a 3-D 30 nm via (resistance and current-crowding hot-spot, Fig. 10b),

and finally the SPICE-like netlist export the paper feeds to circuit
simulation.

Run with ``python examples/tcad_rc_extraction.py``.
"""

from repro.analysis.fig10_tcad import (
    fig10_capacitance_summary,
    fig10_m1_m2_summary,
    fig10_resistance_summary,
)
from repro.analysis.report import format_table


def main() -> None:
    print("1) Parallel-line crosstalk extraction (14 nm node, 3 lines over ground)")
    capacitance = fig10_capacitance_summary()
    matrix = capacitance["matrix_af_per_um"]
    rows = [
        {"conductor": f"c{i}", **{f"c{j}": matrix[i][j] for j in range(len(matrix))}}
        for i in range(len(matrix))
    ]
    print(format_table(rows, title="Maxwell capacitance matrix (aF/um)"))
    print(
        f"victim line total C = {capacitance['victim_total_af_per_um']:.1f} aF/um, "
        f"coupling fraction = {capacitance['coupling_fraction']:.2f}"
    )
    print()

    print("2) M1/M2 crossing (3-D)")
    crossing = fig10_m1_m2_summary()
    print(
        f"M1 total C = {crossing['m1_total_aF']:.3f} aF, "
        f"M1-M2 coupling = {crossing['m1_m2_coupling_aF']:.3f} aF "
        f"({100*crossing['coupling_fraction']:.1f} % of the victim capacitance)"
    )
    print()

    print("3) 30 nm via resistance extraction (Fig. 10b)")
    via = fig10_resistance_summary()
    print(
        f"via resistance = {via['resistance_ohm']:.2f} Ohm, "
        f"current-crowding hot-spot factor = {via['hotspot_factor']:.1f}x the average density"
    )
    print()

    print("4) Exported SPICE-like RC netlist (paper: 'Extracted RC netlists are provided")
    print("   in a SPICE-like format for circuit-level simulation'):")
    print()
    print(capacitance["spice_netlist"])


if __name__ == "__main__":
    main()
