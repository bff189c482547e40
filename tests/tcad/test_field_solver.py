"""Tests for the Laplace solver, capacitance and resistance extraction."""

import numpy as np
import pytest

from repro.constants import VACUUM_PERMITTIVITY
from repro.tcad import (
    StructuredGrid,
    capacitance_matrix,
    current_density_map,
    extract_resistance,
    m1_m2_crossing_structure,
    parallel_lines_structure,
    rc_netlist_from_extraction,
    self_and_coupling_capacitance,
    solve_laplace,
    solve_laplace_many,
    via_structure,
)
from repro.tcad import laplace
from repro.tcad.materials import COPPER, LOW_K_DIELECTRIC, VACUUM
from repro.tcad.resistance import hotspot_factor


def parallel_plate_grid(n_nodes: int = 21, gap: float = 100e-9, eps_r: float = 1.0):
    """Two parallel plates separated by ``gap`` filled with a uniform dielectric."""
    material = VACUUM if eps_r == 1.0 else LOW_K_DIELECTRIC
    spacing = gap / (n_nodes - 1)
    grid = StructuredGrid((n_nodes, n_nodes), (spacing, spacing), background=material)
    width = (n_nodes - 1) * spacing
    grid.fill_box(COPPER, (0.0, 0.0), (width, 0.0), conductor=0)
    grid.fill_box(COPPER, (0.0, width), (width, width), conductor=1)
    return grid, width


class TestLaplaceSolver:
    def test_parallel_plate_potential_is_linear(self):
        grid, _ = parallel_plate_grid()
        solution = solve_laplace(grid, {0: 0.0, 1: 1.0})
        mid_column = solution.potential[10, :]
        expected = np.linspace(0.0, 1.0, 21)
        assert np.allclose(mid_column, expected, atol=1e-6)

    def test_potential_bounded_by_dirichlet_values(self):
        structure = parallel_lines_structure(n_lines=2, resolution=3)
        solution = solve_laplace(structure.grid, {0: 0.0, 1: 1.0, 2: 0.0})
        finite = solution.potential[np.isfinite(solution.potential)]
        assert finite.min() >= -1e-9
        assert finite.max() <= 1.0 + 1e-9

    def test_unknown_conductor_raises(self):
        grid, _ = parallel_plate_grid(n_nodes=11)
        with pytest.raises(ValueError):
            solve_laplace(grid, {7: 1.0})

    def test_bad_coefficient_name(self):
        grid, _ = parallel_plate_grid(n_nodes=11)
        with pytest.raises(ValueError):
            solve_laplace(grid, {0: 0.0, 1: 1.0}, coefficient="magic")

    def test_field_magnitude_uniform_between_plates(self):
        grid, width = parallel_plate_grid()
        solution = solve_laplace(grid, {0: 0.0, 1: 1.0})
        field = solution.field_magnitude()
        interior = field[5:-5, 5:-5]
        assert np.allclose(interior, 1.0 / width, rtol=0.05)


def _assert_same_solution(first, second):
    """Bit-identical potentials (NaN outside the domain included) and masks."""
    assert first.potential.tobytes() == second.potential.tobytes()
    np.testing.assert_array_equal(first.dirichlet_mask, second.dirichlet_mask)
    np.testing.assert_array_equal(first.domain_mask, second.domain_mask)


class TestSolveLaplaceMany:
    def test_each_set_bit_identical_to_a_single_solve(self):
        structure = parallel_lines_structure(n_lines=3, resolution=3)
        grid = structure.grid
        ids = grid.conductor_ids()
        value_sets = [{c: (1.0 if c == active else 0.0) for c in ids} for active in ids]
        value_sets.append({c: 0.25 * c - 0.3 for c in ids})
        solutions = solve_laplace_many(grid, value_sets)
        assert len(solutions) == len(value_sets)
        for values, solution in zip(value_sets, solutions):
            _assert_same_solution(solution, solve_laplace(grid, values))

    def test_3d_grid_with_domain_and_extra_dirichlet(self):
        grid = m1_m2_crossing_structure(resolution=2).grid
        domain = grid.conductor_mask(1) | grid.conductor_mask(2) | (grid.conductor_id == -1)
        contact = np.zeros(grid.shape, dtype=bool)
        contact[0] = True
        extra = [(contact & domain, 0.5)]
        value_sets = [{1: 1.0, 2: 0.0}, {2: 1.0, 1: -1.0}]
        solutions = solve_laplace_many(grid, value_sets, domain_mask=domain, extra_dirichlet=extra)
        for values, solution in zip(value_sets, solutions):
            single = solve_laplace(grid, values, domain_mask=domain, extra_dirichlet=extra)
            _assert_same_solution(solution, single)

    def test_capacitance_matrix_makes_one_sparse_solve(self, monkeypatch):
        calls = []
        spsolve = laplace.spsolve

        def counting_spsolve(matrix, rhs):
            calls.append(np.shape(rhs))
            return spsolve(matrix, rhs)

        monkeypatch.setattr(laplace, "spsolve", counting_spsolve)
        grid = m1_m2_crossing_structure(resolution=2).grid
        matrix = capacitance_matrix(grid)
        assert len(matrix.conductors) == 3
        assert len(calls) == 1
        assert calls[0][1] == 3

    def test_differing_conductor_keys_raise(self):
        grid, _ = parallel_plate_grid(n_nodes=11)
        with pytest.raises(ValueError, match="same conductors"):
            solve_laplace_many(grid, [{0: 0.0, 1: 1.0}, {0: 1.0}])

    def test_empty_value_sets_raise(self):
        grid, _ = parallel_plate_grid(n_nodes=11)
        with pytest.raises(ValueError, match="at least one"):
            solve_laplace_many(grid, [])

    def test_no_free_nodes_returns_one_solution_per_set(self):
        grid = StructuredGrid((4, 3), (1e-9, 1e-9), background=VACUUM)
        grid.fill_box(COPPER, (0.0, 0.0), (1e-9, 2e-9), conductor=0)
        grid.fill_box(COPPER, (2e-9, 0.0), (3e-9, 2e-9), conductor=1)
        value_sets = [{0: 0.0, 1: 1.0}, {0: 2.0, 1: -1.0}, {0: 0.5, 1: 0.5}]
        solutions = solve_laplace_many(grid, value_sets)
        assert len(solutions) == 3
        assert not np.isnan(solutions[0].potential).any()
        for values, solution in zip(value_sets, solutions):
            for conductor, value in values.items():
                assert np.all(solution.potential[grid.conductor_mask(conductor)] == value)
            _assert_same_solution(solution, solve_laplace(grid, values))


class TestCapacitance:
    def test_parallel_plate_capacitance_matches_analytic(self):
        grid, width = parallel_plate_grid(n_nodes=31)
        matrix = capacitance_matrix(grid)
        # Per unit depth: C = eps0 * W / d  (W = plate width, d = gap = width).
        expected = VACUUM_PERMITTIVITY * width / width
        extracted = matrix.coupling_capacitance(0, 1)
        assert extracted == pytest.approx(expected, rel=0.10)

    def test_dielectric_scales_capacitance(self):
        vacuum_grid, _ = parallel_plate_grid(n_nodes=21, eps_r=1.0)
        lowk_grid, _ = parallel_plate_grid(n_nodes=21, eps_r=2.2)
        c_vacuum = capacitance_matrix(vacuum_grid).coupling_capacitance(0, 1)
        c_lowk = capacitance_matrix(lowk_grid).coupling_capacitance(0, 1)
        assert c_lowk / c_vacuum == pytest.approx(2.2, rel=0.05)

    def test_matrix_is_physical(self):
        structure = parallel_lines_structure(n_lines=3, resolution=3)
        matrix = capacitance_matrix(structure.grid)
        assert matrix.is_physical()
        assert len(matrix.conductors) == 4  # ground + 3 lines

    def test_coupling_decays_with_distance(self):
        structure = parallel_lines_structure(n_lines=3, resolution=3)
        matrix = capacitance_matrix(structure.grid)
        near = matrix.coupling_capacitance(1, 2)
        far = matrix.coupling_capacitance(1, 3)
        assert near > far

    def test_self_and_coupling_summary(self):
        structure = parallel_lines_structure(n_lines=2, resolution=3)
        summary = self_and_coupling_capacitance(
            structure.grid, structure.conductors["line0"], structure.conductors["line1"]
        )
        assert 0.0 < summary["coupling_fraction"] < 1.0
        assert summary["coupling_capacitance"] < summary["total_capacitance"]

    def test_no_conductor_raises(self):
        grid = StructuredGrid((5, 5), (1e-9, 1e-9))
        with pytest.raises(ValueError):
            capacitance_matrix(grid)

    def test_index_lookup_errors(self):
        grid, _ = parallel_plate_grid(n_nodes=11)
        matrix = capacitance_matrix(grid)
        with pytest.raises(KeyError):
            matrix.self_capacitance(42)


class TestResistance:
    def test_uniform_bar_resistance_converges_to_analytic(self):
        # rho L / (W * depth) with the node-count overestimate of the
        # cross-section shrinking as the grid is refined.
        rho = 1.72e-8
        length, height = 200e-9, 50e-9
        errors = []
        for spacing in (10e-9, 5e-9, 2.5e-9):
            nx = int(length / spacing) + 1
            ny = int(height / spacing) + 1
            grid = StructuredGrid((nx, ny), (spacing, spacing), background=LOW_K_DIELECTRIC)
            grid.fill_box(COPPER, (0.0, 0.0), (length, height), conductor=1)
            extraction = extract_resistance(grid, 1, axis=0)
            expected = rho * length / height  # per metre of depth
            errors.append(abs(extraction.resistance - expected) / expected)
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.06

    def test_longer_bar_more_resistance(self):
        def bar(length):
            grid = StructuredGrid((int(length / 10e-9) + 1, 6), (10e-9, 10e-9))
            grid.fill_box(COPPER, (0.0, 0.0), (length, 50e-9), conductor=1)
            return extract_resistance(grid, 1, axis=0).resistance

        assert bar(400e-9) == pytest.approx(2 * bar(200e-9), rel=0.05)

    def test_current_density_map_finite_inside_conductor(self):
        structure = via_structure()
        extraction = extract_resistance(structure.grid, 1, axis=2)
        density = current_density_map(extraction)
        inside = np.isfinite(density)
        assert inside.any()
        assert np.all(density[inside] >= 0)

    def test_via_has_current_crowding_hotspot(self):
        # The narrow via concentrates the current: peak density well above average.
        structure = via_structure()
        extraction = extract_resistance(structure.grid, 1, axis=2)
        assert hotspot_factor(extraction) > 1.5

    def test_missing_conductor_raises(self):
        grid = StructuredGrid((5, 5), (1e-9, 1e-9))
        with pytest.raises(ValueError):
            extract_resistance(grid, 1)

    def test_bias_validation(self):
        structure = via_structure()
        with pytest.raises(ValueError):
            extract_resistance(structure.grid, 1, axis=2, bias=0.0)


class TestStructuresAndExport:
    def test_parallel_lines_conductor_roles(self):
        structure = parallel_lines_structure(n_lines=3, resolution=3)
        assert set(structure.conductors) == {"ground", "line0", "line1", "line2"}

    def test_parallel_lines_validation(self):
        with pytest.raises(ValueError):
            parallel_lines_structure(n_lines=0)
        with pytest.raises(ValueError):
            parallel_lines_structure(resolution=1)

    def test_m1_m2_crossing_has_three_conductors(self):
        structure = m1_m2_crossing_structure(resolution=2)
        assert set(structure.conductors) == {"ground", "m1", "m2"}
        assert structure.grid.ndim == 3

    def test_via_structure_validation(self):
        with pytest.raises(ValueError):
            via_structure(via_width=100e-9, landing_width=90e-9)
        with pytest.raises(ValueError):
            via_structure(resolution=0.0)

    def test_rc_netlist_export(self):
        structure = parallel_lines_structure(n_lines=2, resolution=3)
        matrix = capacitance_matrix(structure.grid)
        circuit = rc_netlist_from_extraction(
            matrix,
            ground_conductor=structure.conductors["ground"],
            resistances={1: 100.0, 2: 120.0},
            length=10e-6,
        )
        assert len(circuit.capacitors) >= 2
        assert len(circuit.resistors) == 2
        text = circuit.to_spice()
        assert ".end" in text

    def test_rc_netlist_validation(self):
        structure = parallel_lines_structure(n_lines=2, resolution=3)
        matrix = capacitance_matrix(structure.grid)
        with pytest.raises(ValueError):
            rc_netlist_from_extraction(matrix, length=0.0)
        with pytest.raises(ValueError):
            rc_netlist_from_extraction(matrix, resistances={1: -5.0})
