"""Multi-conductor capacitance extraction (paper Fig. 10a).

For every conductor ``j`` the Laplace problem of Eq. (2) is solved with that
conductor at 1 V and all others grounded; the charge induced on conductor
``i`` then gives the Maxwell capacitance matrix entry ``C[i, j]``.  All
conductors share one matrix, so every column comes from one multi-column
sparse solve (:func:`~repro.tcad.laplace.solve_laplace_many`).  The
off-diagonal entries are the (negative) coupling capacitances responsible for
the crosstalk the paper's TCAD figure highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import VACUUM_PERMITTIVITY
from repro.tcad.laplace import solve_laplace_many


@dataclass(frozen=True)
class CapacitanceMatrix:
    """Maxwell capacitance matrix of a set of conductors.

    Attributes
    ----------
    conductors:
        Conductor identifiers in matrix order.
    matrix:
        Maxwell capacitance matrix.  Units: F/m for 2-D cross-section grids,
        F for 3-D grids.
    """

    conductors: tuple[int, ...]
    matrix: np.ndarray

    def index_of(self, conductor: int) -> int:
        """Row/column index of a conductor identifier."""
        try:
            return self.conductors.index(conductor)
        except ValueError:
            raise KeyError(f"conductor {conductor} not in the capacitance matrix") from None

    def self_capacitance(self, conductor: int) -> float:
        """Total capacitance of a conductor to everything else (its Maxwell diagonal)."""
        i = self.index_of(conductor)
        return float(self.matrix[i, i])

    def coupling_capacitance(self, first: int, second: int) -> float:
        """Coupling (mutual) capacitance between two conductors (positive number)."""
        i, j = self.index_of(first), self.index_of(second)
        return float(-self.matrix[i, j])

    def ground_capacitance(self, conductor: int) -> float:
        """Capacitance of a conductor to ground (everything not in the matrix)."""
        i = self.index_of(conductor)
        return float(self.matrix[i, i] + self.matrix[i, :].sum() - self.matrix[i, i])

    def is_physical(self, tolerance: float = 0.05) -> bool:
        """Sanity check: positive diagonal, negative off-diagonal, near symmetry."""
        matrix = self.matrix
        if np.any(np.diag(matrix) <= 0):
            return False
        off_diagonal = matrix - np.diag(np.diag(matrix))
        if np.any(off_diagonal > 1e-18):
            return False
        asymmetry = np.abs(matrix - matrix.T)
        scale = np.max(np.abs(matrix))
        return bool(np.all(asymmetry <= tolerance * scale))


def capacitance_matrix(grid, conductors: list[int] | None = None) -> CapacitanceMatrix:
    """Extract the Maxwell capacitance matrix of the conductors in a grid.

    Parameters
    ----------
    grid:
        A :class:`~repro.tcad.grid.StructuredGrid` with at least one conductor
        painted (conductor ids >= 0).
    conductors:
        Conductor identifiers to include; defaults to every conductor found.

    Returns
    -------
    CapacitanceMatrix
        Per-unit-length (2-D grids) or absolute (3-D grids) capacitances.
    """
    ids = conductors if conductors is not None else grid.conductor_ids()
    if len(ids) == 0:
        raise ValueError("the grid contains no conductors to extract")

    n = len(ids)
    matrix = np.zeros((n, n))
    # The dielectric domain excludes conductor interiors (they are Dirichlet
    # regions); unidentified conductors (-2) are excluded entirely.
    value_sets = [
        {conductor: (1.0 if conductor == active else 0.0) for conductor in ids} for active in ids
    ]
    solutions = solve_laplace_many(grid, value_sets, coefficient="permittivity")
    for j, solution in enumerate(solutions):
        for i, probe in enumerate(ids):
            flux = solution.flux_into_region(grid.conductor_mask(probe))
            charge = VACUUM_PERMITTIVITY * flux
            matrix[i, j] = charge

    return CapacitanceMatrix(conductors=tuple(ids), matrix=matrix)


def self_and_coupling_capacitance(grid, victim: int, aggressor: int) -> dict[str, float]:
    """Convenience two-conductor summary of the crosstalk situation of Fig. 10a.

    Returns a dictionary with the victim's total capacitance, the victim to
    aggressor coupling capacitance and the coupling fraction (the share of the
    victim's capacitance subject to crosstalk).
    """
    full = capacitance_matrix(grid)
    total = full.self_capacitance(victim)
    coupling = full.coupling_capacitance(victim, aggressor)
    return {
        "total_capacitance": total,
        "coupling_capacitance": coupling,
        "coupling_fraction": coupling / total if total > 0 else float("nan"),
    }
