"""Experiment E4 driver: TCAD RC extraction of an interconnect stack (Fig. 10).

Fig. 10a of the paper shows a 3-D TCAD capacitance extraction of a 14 nm
inverter up to the M2 level with electric-field streamlines highlighting
line-to-line crosstalk; Fig. 10b shows a resistance extraction whose current
density reveals hot-spots.  The drivers below run the reproduction's
finite-difference solver on the equivalent parametric structures and return
the quantities those figures communicate: the capacitance matrix / coupling
fractions, and the extracted resistance / current-crowding factor.
"""

from __future__ import annotations

from repro.circuit.technology import NODE_14NM, TechnologyNode
from repro.tcad.capacitance import capacitance_matrix
from repro.tcad.resistance import extract_resistance, hotspot_factor
from repro.tcad.netlist_export import rc_netlist_from_extraction
from repro.tcad.structures import (
    m1_m2_crossing_structure,
    parallel_lines_structure,
    via_structure,
)


def fig10_capacitance_summary(
    technology: TechnologyNode = NODE_14NM,
    n_lines: int = 3,
    resolution: int = 4,
) -> dict:
    """Crosstalk capacitance extraction of parallel lines at the given node.

    Returns the per-unit-length capacitance matrix (aF/um), the coupling
    fraction of the centre (victim) line and the exported SPICE netlist text.
    """
    structure = parallel_lines_structure(
        n_lines=n_lines, technology=technology, resolution=resolution
    )
    matrix = capacitance_matrix(structure.grid)

    victim = structure.conductors["line1"] if n_lines >= 3 else structure.conductors["line0"]
    aggressors = [
        conductor
        for name, conductor in structure.conductors.items()
        if name.startswith("line") and conductor != victim
    ]
    total = matrix.self_capacitance(victim)
    coupling = sum(matrix.coupling_capacitance(victim, aggressor) for aggressor in aggressors)

    circuit = rc_netlist_from_extraction(
        matrix,
        ground_conductor=structure.conductors.get("ground"),
        length=1e-6,
        title=f"{technology.name} parallel-line extraction",
    )

    def to_af_per_um(value: float) -> float:
        return value * 1e18 * 1e-6

    return {
        "technology": technology.name,
        "conductors": dict(structure.conductors),
        "matrix_af_per_um": (matrix.matrix * 1e18 * 1e-6).tolist(),
        "victim_total_af_per_um": to_af_per_um(total),
        "victim_coupling_af_per_um": to_af_per_um(coupling),
        "coupling_fraction": coupling / total if total > 0 else float("nan"),
        "is_physical": matrix.is_physical(),
        "spice_netlist": circuit.to_spice(),
    }


def fig10_m1_m2_summary(technology: TechnologyNode = NODE_14NM, resolution: int = 3) -> dict:
    """3-D M1/M2 crossing capacitance extraction (the stacked-level crosstalk case)."""
    structure = m1_m2_crossing_structure(technology=technology, resolution=resolution)
    matrix = capacitance_matrix(structure.grid)
    m1 = structure.conductors["m1"]
    m2 = structure.conductors["m2"]
    total = matrix.self_capacitance(m1)
    coupling = matrix.coupling_capacitance(m1, m2)
    return {
        "technology": technology.name,
        "m1_total_aF": total * 1e18,
        "m1_m2_coupling_aF": coupling * 1e18,
        "coupling_fraction": coupling / total if total > 0 else float("nan"),
        "is_physical": matrix.is_physical(),
    }


def fig10_resistance_summary(
    via_width_nm: float = 30.0,
    via_height_nm: float = 60.0,
    resolution_nm: float = 7.5,
) -> dict:
    """Via resistance extraction with current-crowding hot-spot metric (Fig. 10b).

    Uses the paper's 30 nm via-hole dimension as the default test structure.
    """
    structure = via_structure(
        via_width=via_width_nm * 1e-9,
        via_height=via_height_nm * 1e-9,
        resolution=resolution_nm * 1e-9,
    )
    extraction = extract_resistance(structure.grid, structure.conductors["via"], axis=2)
    return {
        "via_width_nm": via_width_nm,
        "via_height_nm": via_height_nm,
        "resistance_ohm": extraction.resistance,
        "current_a_at_1v": extraction.current,
        "hotspot_factor": hotspot_factor(extraction),
    }
