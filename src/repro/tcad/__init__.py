"""TCAD-style field solver for interconnect RC extraction (paper Fig. 10).

Section III.B of the paper extracts macroscopic resistance and capacitance of
interconnect structures by solving the Laplace equations

    div(eps grad psi) = 0     in insulators          (Eq. 2)
    div(kappa grad psi) = 0   in conductors          (Eq. 3)

with a finite-difference approach, then exports the resulting RC netlists in
a SPICE-like format.  This subpackage is the reproduction of that flow:

* :mod:`repro.tcad.grid` -- structured 2-D/3-D grids with per-cell material,
* :mod:`repro.tcad.materials` -- permittivity / conductivity material table,
* :mod:`repro.tcad.laplace` -- the sparse finite-difference Laplace solver,
* :mod:`repro.tcad.capacitance` -- multi-conductor capacitance matrices
  (crosstalk, Fig. 10a),
* :mod:`repro.tcad.resistance` -- resistance and current-density maps
  (hot-spots, Fig. 10b),
* :mod:`repro.tcad.structures` -- parametric interconnect structures
  (parallel lines, M1/M2 crossings, vias),
* :mod:`repro.tcad.netlist_export` -- SPICE-like RC netlist export.
"""

from repro.tcad.grid import StructuredGrid
from repro.tcad.materials import Material, MATERIALS
from repro.tcad.laplace import LaplaceSolution, solve_laplace, solve_laplace_many
from repro.tcad.capacitance import capacitance_matrix, self_and_coupling_capacitance
from repro.tcad.resistance import extract_resistance, current_density_map
from repro.tcad.structures import (
    parallel_lines_structure,
    m1_m2_crossing_structure,
    via_structure,
)
from repro.tcad.netlist_export import rc_netlist_from_extraction

__all__ = [
    "StructuredGrid",
    "Material",
    "MATERIALS",
    "LaplaceSolution",
    "solve_laplace",
    "solve_laplace_many",
    "capacitance_matrix",
    "self_and_coupling_capacitance",
    "extract_resistance",
    "current_density_map",
    "parallel_lines_structure",
    "m1_m2_crossing_structure",
    "via_structure",
    "rc_netlist_from_extraction",
]
