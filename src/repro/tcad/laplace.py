"""Sparse finite-difference Laplace solver (paper Eqs. 2-3).

Solves ``div(c grad psi) = 0`` on a :class:`~repro.tcad.grid.StructuredGrid`
where the coefficient ``c`` is either the permittivity (capacitance
extraction in the dielectric) or the conductivity (resistance extraction
inside a conductor).  Dirichlet values are applied on conductor nodes (or any
explicit node mask); the outer boundary is a natural (Neumann) boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from repro.obs.trace import trace_span


def _combine_coefficients(
    c_a: np.ndarray, c_b: np.ndarray, dirichlet_a: np.ndarray, dirichlet_b: np.ndarray
) -> np.ndarray:
    """Per-link coefficient from the two node coefficients.

    Harmonic mean in the bulk; when exactly one node is a Dirichlet
    (conductor) node the free node's coefficient is used, because the field
    between a conductor surface and the adjacent dielectric node lives in the
    dielectric.
    """
    denominator = np.maximum(c_a + c_b, 1e-300)
    combined = np.where(c_a + c_b > 0.0, 2.0 * c_a * c_b / denominator, 0.0)
    combined = np.where(dirichlet_a & ~dirichlet_b, c_b, combined)
    combined = np.where(dirichlet_b & ~dirichlet_a, c_a, combined)
    return combined


def _links_from(
    coords: np.ndarray, axis: int, direction: int, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of (node, neighbour) grid coordinates along one axis direction.

    ``coords`` is an ``(n, ndim)`` array of node indices; neighbours falling
    outside the grid are dropped.  Returns the filtered node coordinates and
    the matching neighbour coordinates.
    """
    neighbours = coords.copy()
    neighbours[:, axis] += direction
    inside = (neighbours[:, axis] >= 0) & (neighbours[:, axis] < shape[axis])
    return coords[inside], neighbours[inside]


@dataclass(frozen=True)
class LaplaceSolution:
    """Result of a finite-difference Laplace solve.

    Attributes
    ----------
    grid:
        The grid the problem was solved on.
    potential:
        Node potentials in volt, shaped like the grid; nodes outside the
        solution domain hold ``numpy.nan``.
    coefficient:
        The coefficient field (permittivity or conductivity) used, shaped
        like the grid.
    dirichlet_mask:
        Boolean mask of the nodes that were held at fixed potentials.
    domain_mask:
        Boolean mask of the nodes that are part of the problem (free or
        Dirichlet).
    """

    grid: "object"
    potential: np.ndarray
    coefficient: np.ndarray
    dirichlet_mask: np.ndarray
    domain_mask: np.ndarray

    def flux_into_region(self, region_mask: np.ndarray) -> float:
        """Net coefficient-weighted flux flowing into a node region.

        The flux is ``sum over boundary links of c_link * (A/d) * (V_region -
        V_outside)``; for a capacitance solve multiply by ``epsilon_0`` to get
        the charge on the region, for a resistance solve the value is directly
        the current leaving the region through the rest of the domain (ampere,
        per metre of depth on 2-D grids).
        """
        grid = self.grid
        region = (region_mask & self.domain_mask).astype(bool)
        coords = np.argwhere(region)
        total = 0.0
        for axis in range(grid.ndim):
            factor = grid.link_area_over_distance(axis)
            for direction in (+1, -1):
                nodes, neighbours = _links_from(coords, axis, direction, grid.shape)
                if nodes.size == 0:
                    continue
                node_idx = tuple(nodes.T)
                nb_idx = tuple(neighbours.T)
                outside = ~region[nb_idx] & self.domain_mask[nb_idx]
                if not outside.any():
                    continue
                node_sel = tuple(nodes[outside].T)
                nb_sel = tuple(neighbours[outside].T)
                c_link = _combine_coefficients(
                    self.coefficient[node_sel],
                    self.coefficient[nb_sel],
                    self.dirichlet_mask[node_sel],
                    self.dirichlet_mask[nb_sel],
                )
                v_region = self.potential[node_sel]
                v_outside = self.potential[nb_sel]
                valid = ~np.isnan(v_outside) & ~np.isnan(v_region)
                total += float(
                    np.sum(c_link[valid] * factor * (v_region[valid] - v_outside[valid]))
                )
        return total

    def field_magnitude(self) -> np.ndarray:
        """Magnitude of the potential gradient |grad psi| in V/m (nan outside the domain)."""
        grid = self.grid
        gradients = np.gradient(self.potential, *grid.spacing)
        if grid.ndim == 2:
            gx, gy = gradients
            return np.sqrt(gx**2 + gy**2)
        gx, gy, gz = gradients
        return np.sqrt(gx**2 + gy**2 + gz**2)


def solve_laplace(
    grid,
    dirichlet_values: dict[int, float],
    coefficient: str = "permittivity",
    domain_mask: np.ndarray | None = None,
    extra_dirichlet: list[tuple[np.ndarray, float]] | None = None,
) -> LaplaceSolution:
    """Solve ``div(c grad psi) = 0`` on a structured grid.

    One boundary-condition set of :func:`solve_laplace_many`.

    Parameters
    ----------
    grid:
        A :class:`~repro.tcad.grid.StructuredGrid`.
    dirichlet_values:
        Mapping from conductor identifier to fixed potential in volt.  Every
        node of those conductors is held at that potential.
    coefficient:
        ``"permittivity"`` (capacitance extraction, Eq. 2) or
        ``"conductivity"`` (resistance extraction, Eq. 3).
    domain_mask:
        Optional boolean mask restricting the solution domain (e.g. the
        interior of one conductor for resistance extraction).  Defaults to
        the whole grid.
    extra_dirichlet:
        Optional additional Dirichlet regions given as ``(mask, value)``
        pairs -- used for contact faces in resistance extraction.

    Returns
    -------
    LaplaceSolution
    """
    return solve_laplace_many(
        grid, [dirichlet_values], coefficient, domain_mask, extra_dirichlet
    )[0]


def solve_laplace_many(
    grid,
    value_sets: list[dict[int, float]],
    coefficient: str = "permittivity",
    domain_mask: np.ndarray | None = None,
    extra_dirichlet: list[tuple[np.ndarray, float]] | None = None,
) -> list[LaplaceSolution]:
    """Solve ``div(c grad psi) = 0`` once per set of conductor potentials.

    Every set must hold the same conductors, so all sets share one Dirichlet
    mask and therefore one matrix: it is assembled once and factorized once,
    and each set becomes one column of the right-hand side of a single
    ``spsolve`` call.  Each returned solution is bit-identical to solving its
    set alone.  ``extra_dirichlet`` regions hold the same value in every set.

    Parameters
    ----------
    grid, coefficient, domain_mask, extra_dirichlet:
        As for :func:`solve_laplace`.
    value_sets:
        Non-empty list of mappings from conductor identifier to fixed
        potential in volt, all with the same conductor identifiers.

    Returns
    -------
    list[LaplaceSolution]
        One solution per value set, in order.
    """
    if coefficient == "permittivity":
        coeff = grid.permittivity.astype(float)
    elif coefficient == "conductivity":
        coeff = grid.conductivity.astype(float)
    else:
        raise ValueError("coefficient must be 'permittivity' or 'conductivity'")
    if not value_sets:
        raise ValueError("value_sets must hold at least one set of conductor potentials")
    conductors = set(value_sets[0])
    if any(set(values) != conductors for values in value_sets):
        raise ValueError("every value set must hold the same conductors")
    n_sets = len(value_sets)

    domain = np.ones(grid.shape, dtype=bool) if domain_mask is None else domain_mask.astype(bool)

    # The last axis of ``dirichlet_value`` indexes the value sets.
    dirichlet_mask = np.zeros(grid.shape, dtype=bool)
    dirichlet_value = np.zeros(grid.shape + (n_sets,), dtype=float)
    for conductor in value_sets[0]:
        mask = grid.conductor_mask(conductor)
        if not mask.any():
            raise ValueError(f"conductor {conductor} has no nodes in the grid")
        dirichlet_mask |= mask
        dirichlet_value[mask] = [values[conductor] for values in value_sets]
    for mask, value in extra_dirichlet or []:
        mask = mask.astype(bool)
        dirichlet_mask |= mask
        dirichlet_value[mask] = value

    dirichlet_mask &= domain
    free_mask = domain & ~dirichlet_mask
    n_free = int(free_mask.sum())

    def solutions(solution_free: np.ndarray) -> list[LaplaceSolution]:
        result = []
        for column in range(n_sets):
            potential = np.full(grid.shape, np.nan)
            potential[dirichlet_mask] = dirichlet_value[..., column][dirichlet_mask]
            potential[free_mask] = solution_free[:, column]
            result.append(LaplaceSolution(grid, potential, coeff, dirichlet_mask, domain))
        return result

    if n_free == 0:
        return solutions(np.empty((0, n_sets)))

    free_index = -np.ones(grid.shape, dtype=int)
    free_index[free_mask] = np.arange(n_free)
    free_coords = np.argwhere(free_mask)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    rhs = np.zeros((n_free, n_sets))
    diagonal = np.zeros(n_free)

    for axis in range(grid.ndim):
        factor = grid.link_area_over_distance(axis)
        for direction in (+1, -1):
            nodes, neighbours = _links_from(free_coords, axis, direction, grid.shape)
            if nodes.size == 0:
                continue
            node_idx = tuple(nodes.T)
            nb_idx = tuple(neighbours.T)
            in_domain = domain[nb_idx]
            if not in_domain.any():
                continue
            nodes = nodes[in_domain]
            neighbours = neighbours[in_domain]
            node_idx = tuple(nodes.T)
            nb_idx = tuple(neighbours.T)

            c_link = _combine_coefficients(
                coeff[node_idx],
                coeff[nb_idx],
                dirichlet_mask[node_idx],
                dirichlet_mask[nb_idx],
            )
            weight = c_link * factor
            node_ids = free_index[node_idx]
            np.add.at(diagonal, node_ids, weight)

            neighbour_free = free_mask[nb_idx]
            if neighbour_free.any():
                rows.append(node_ids[neighbour_free])
                cols.append(free_index[nb_idx][neighbour_free])
                data.append(-weight[neighbour_free])

            neighbour_fixed = ~neighbour_free
            if neighbour_fixed.any():
                contribution = (
                    weight[neighbour_fixed][:, None] * dirichlet_value[nb_idx][neighbour_fixed]
                )
                np.add.at(rhs, node_ids[neighbour_fixed], contribution)

    rows.append(np.arange(n_free))
    cols.append(np.arange(n_free))
    data.append(diagonal)

    matrix = coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_free, n_free),
    ).tocsr()

    with trace_span("tcad.solve", unknowns=n_free, rhs=n_sets):
        # spsolve returns a 1-D array for a single column.
        solution_free = spsolve(matrix, rhs).reshape(n_free, n_sets)
    return solutions(solution_free)
