"""The stacked kernel's sparse layout: structure, routing and parity tests.

From :data:`repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns on, the stacked
kernel (:class:`repro.circuit.batched._Batch`) holds each matrix in LAPACK
band storage, the one sparse format of the circuit solver.  It must stamp
the matrix of the dense oracle assembler (``dense_reference.py``) entry for
entry and give the waveforms of the dense reference analyses to 1e-9.  The
``band_everywhere`` fixture lowers the threshold to 0, so small circuits
exercise the band path too.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

from dense_reference import CompanionState, DenseAssembler, dense_transient_analysis

from repro.circuit import Circuit, Step, transient_analysis
from repro.circuit import batched
from repro.circuit.batched import _Batch
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import BAND_SIZE_THRESHOLD, BandLayout, MNAAssembler, uses_band
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC

PARITY_RTOL = 1.0e-9


def _rc_ladder_circuit(n_segments: int = 30) -> Circuit:
    circuit = Circuit("rc ladder")
    circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, delay=1e-12, rise_time=5e-12))
    circuit.add_resistor("rdrv", "a", "n0", 1e3)
    ladder = DistributedRC(
        total_resistance=2e4,
        total_capacitance=5e-14,
        contact_resistance=4e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "n0", "far", name_prefix="dut")
    circuit.add_capacitor("cl", "far", "0", 2e-15)
    return circuit


def _rlc_circuit() -> Circuit:
    circuit = Circuit("rlc")
    circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=1e-12))
    circuit.add_resistor("r1", "a", "b", 50.0)
    circuit.add_inductor("l1", "b", "c", 1e-9)
    circuit.add_capacitor("c1", "c", "0", 1e-12)
    return circuit


def _inverter_line_circuit() -> Circuit:
    circuit = Circuit("inverter line")
    add_supply(circuit, NODE_45NM)
    v_dd = NODE_45NM.supply_voltage
    circuit.add_voltage_source("vin", "in", "0", Step(0.0, v_dd, delay=2e-12, rise_time=4e-12))
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    ladder = DistributedRC(
        total_resistance=1e4, total_capacitance=2e-14, contact_resistance=2e3, n_segments=12
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="dut")
    Inverter("rcv", "far", "out", technology=NODE_45NM).add_to(circuit)
    return circuit


def _max_relative_error(a, b) -> float:
    scale = max(
        max(np.max(np.abs(w)) for w in a.node_voltages.values()), 1e-30
    )
    return max(
        float(np.max(np.abs(a.voltage(n) - b.voltage(n)))) for n in a.node_voltages
    ) / scale


class TestBackendSelection:
    def test_small_circuits_stay_dense(self):
        assert not uses_band(BAND_SIZE_THRESHOLD - 1)
        circuit = _inverter_line_circuit()
        assert MNAAssembler(circuit).size < BAND_SIZE_THRESHOLD
        assert _Batch([circuit], [1e-12]).band is None

    def test_large_circuits_go_sparse(self):
        assert uses_band(BAND_SIZE_THRESHOLD)
        circuit = _rc_ladder_circuit(n_segments=80)
        assert MNAAssembler(circuit).size >= BAND_SIZE_THRESHOLD
        layout = _Batch([circuit], [1e-12]).band
        # Reverse Cuthill-McKee unrolls the ladder: a few diagonals, not
        # the alphabetical node order's scattered pattern.
        assert layout is not None
        assert layout.kl <= 2 and layout.ku <= 2

    def test_no_per_call_solver_knobs(self):
        """No public function, class or method of ``repro.circuit`` takes a
        solver, a Newton policy or a Newton tuning argument, and no
        exported name offers a backend or a sparse path to pick."""
        import repro.circuit

        knobs = {
            "backend",
            "solver_opts",
            "options",
            "tolerance",
            "damping_limit",
            "max_newton_iterations",
        }
        overrides: set[str] = set()
        for info in pkgutil.iter_modules(repro.circuit.__path__):
            module = importlib.import_module(f"repro.circuit.{info.name}")
            members = []
            for name, member in inspect.getmembers(module):
                if name.startswith("_") or name in overrides:
                    continue
                if getattr(member, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(member):
                    members.append((name, member))
                elif inspect.isclass(member):
                    members.append((name, member))
                    members += [
                        (f"{name}.{method}", function)
                        for method, function in inspect.getmembers(member, inspect.isfunction)
                        if not method.startswith("_")
                    ]
            for name, member in members:
                taken = knobs & set(inspect.signature(member).parameters)
                assert not taken, f"{module.__name__}.{name} takes {sorted(taken)}"
        for name in repro.circuit.__all__:
            assert "backend" not in name.lower() and "sparse" not in name.lower(), name


class TestCompiledAssembly:
    """The band matrix must equal the dense assembler's entry for entry."""

    @staticmethod
    def _stamped(batch: _Batch, rhs: np.ndarray, guess: np.ndarray) -> np.ndarray:
        """The batch's one band matrix with the MOSFETs stamped at
        ``guess``, unpacked to a dense array."""
        layout = batch.band
        assert layout is not None
        band = batch.static_matrices.copy()
        batch._stamp_mosfets(band, rhs, batch.mos_params, guess[None, :])
        unpacked = np.zeros((batch.size, batch.size))
        for row in range(batch.size):
            for col in range(batch.size):
                offset = layout.position[row] - layout.position[col]
                if -layout.ku <= offset <= layout.kl:
                    unpacked[row, col] = band[0, layout.index(row, col)]
        return unpacked

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    @pytest.mark.parametrize(
        "builder", [_rc_ladder_circuit, _rlc_circuit, _inverter_line_circuit]
    )
    def test_matrix_and_rhs_match_dense(self, band_everywhere, builder, method):
        circuit = builder()
        dt = 1e-12
        batch = _Batch([circuit], [dt], method)
        assembler = DenseAssembler(circuit)

        rng = np.random.default_rng(7)
        guess = rng.normal(scale=0.4, size=assembler.size)
        state = CompanionState.initial(circuit)
        time = np.linspace(0.0, 100 * dt, 101)[3]  # step 3 of a 100-step run
        want_matrix, want_rhs = assembler.assemble(
            time, guess, state=state, dt=dt, method=method
        )

        cap_v = np.array([[state.capacitor_voltages[c.name]] for c in circuit.capacitors])
        ind_i = np.array([[state.inductor_currents[l.name]] for l in circuit.inductors])
        companion = (
            cap_v.reshape(-1, 1),
            np.zeros((len(circuit.capacitors), 1)),
            ind_i.reshape(-1, 1),
            np.zeros((len(circuit.inductors), 1)),
        )
        sources = (table[0] for table in batch._source_table(np.array([[time]])))
        rhs = batch._base_rhs(*sources, companion)
        # Bytes, not a tolerance: the band path stamps the same terms in
        # the same order; every entry outside the band must be zero.
        assert self._stamped(batch, rhs, guess).tobytes() == want_matrix.tobytes()
        assert rhs[0].tobytes() == want_rhs.tobytes()

    @pytest.mark.parametrize(
        "builder", [_rc_ladder_circuit, _rlc_circuit, _inverter_line_circuit]
    )
    def test_dc_matrix_and_rhs_match_dense(self, band_everywhere, builder):
        """The DC system: capacitors open, inductors zero-volt branches."""
        circuit = builder()
        batch = _Batch([circuit])
        assembler = DenseAssembler(circuit)
        assert batch.size == assembler.dc_size

        guess = np.random.default_rng(5).normal(scale=0.4, size=assembler.dc_size)
        time = 3e-12
        want_matrix, want_rhs = assembler.assemble(time, guess, capacitors_open=True)
        sources = (table[0] for table in batch._source_table(np.array([[time]])))
        rhs = batch._base_rhs(*sources)
        assert self._stamped(batch, rhs, guess).tobytes() == want_matrix.tobytes()
        assert rhs[0].tobytes() == want_rhs.tobytes()

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_update_state_matches_dense(self, method):
        circuit = _rlc_circuit()
        dt = 2e-12
        assembler = DenseAssembler(circuit)
        batch = _Batch([circuit], [dt], method)
        rng = np.random.default_rng(11)
        solution = rng.normal(size=assembler.size)
        state = CompanionState.initial(circuit)
        state.capacitor_currents = {c.name: 1e-4 for c in circuit.capacitors}
        state.inductor_voltages = {l.name: 0.3 for l in circuit.inductors}

        want = assembler.update_state(solution, state, dt, method=method)
        fields = {
            "capacitor_voltages": circuit.capacitors,
            "capacitor_currents": circuit.capacitors,
            "inductor_currents": circuit.inductors,
            "inductor_voltages": circuit.inductors,
        }
        columns = [
            np.array([getattr(state, field)[e.name] for e in elements]).reshape(-1, 1)
            for field, elements in fields.items()
        ]
        got = batch._advance_state(np.append(solution, 0.0)[None, :], *columns)
        for values, (field, elements) in zip(got, fields.items()):
            assert values[:, 0].tolist() == [getattr(want, field)[e.name] for e in elements]

    def test_validation(self, band_everywhere):
        circuit = _rc_ladder_circuit(4)
        with pytest.raises(ValueError):
            transient_analysis(circuit, 1e-10, 1e-12, method="euler")
        with pytest.raises(ValueError):
            transient_analysis(circuit, 1e-10, 0.0)


class TestBandSolve:
    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is double precision on this platform",
    )
    def test_refinement_reaches_the_exact_solution(self):
        """On an ill-conditioned DC system (condition number ~4e8) the plain
        band LU is hundreds of units in the last place off the exact
        solution; one refinement step brings it within a few."""
        assembler = DenseAssembler(_inverter_line_circuit())
        matrix, rhs = assembler.assemble(
            0.0, np.full(assembler.dc_size, 0.5), capacitors_open=True
        )
        exact = np.linalg.solve(matrix, rhs).astype(np.longdouble)
        for _ in range(5):
            residual = rhs - matrix.astype(np.longdouble) @ exact
            exact += np.linalg.solve(matrix, residual.astype(float))
        ulp = np.finfo(float).eps * float(np.max(np.abs(exact)))

        layout = BandLayout(assembler, capacitors_open=True)
        rows, cols = np.nonzero(matrix)
        bands = np.zeros((1, layout.size * layout.rows))
        bands[0, layout.index(rows, cols)] = matrix[rows, cols]
        plain, factors = layout.solve(bands, rhs[None])
        refined = layout.refine(layout.entries(bands), rhs[None], plain, factors)
        assert np.max(np.abs(plain[0] - exact)) > 64 * ulp
        assert np.max(np.abs(refined[0] - exact)) < 16 * ulp


class TestTransientParity:
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_linear_ladder_waveforms_match(self, band_everywhere, method):
        circuit = _rc_ladder_circuit()
        dense = dense_transient_analysis(circuit, 1e-9, 4e-12, method=method)
        band = transient_analysis(circuit, 1e-9, 4e-12, method=method)
        assert _max_relative_error(dense, band) < PARITY_RTOL
        for source in ("vin",):
            np.testing.assert_allclose(
                dense.current(source), band.current(source), rtol=1e-9, atol=1e-15
            )

    def test_rlc_waveforms_match(self, band_everywhere):
        circuit = _rlc_circuit()
        dense = dense_transient_analysis(circuit, 2e-10, 5e-13)
        band = transient_analysis(circuit, 2e-10, 5e-13)
        assert _max_relative_error(dense, band) < PARITY_RTOL

    def test_nonlinear_waveforms_match(self, band_everywhere):
        circuit = _inverter_line_circuit()
        dense = dense_transient_analysis(circuit, 3e-10, 1e-12)
        band = transient_analysis(circuit, 3e-10, 1e-12)
        assert _max_relative_error(dense, band) < PARITY_RTOL

    def test_no_dc_start_honours_initial_conditions(self, band_everywhere):
        circuit = Circuit("ic")
        circuit.add_voltage_source("vin", "a", "0", 1.0)
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12, initial_voltage=0.25)
        dense = dense_transient_analysis(circuit, 1e-9, 2e-12, use_dc_start=False)
        band = transient_analysis(circuit, 1e-9, 2e-12, use_dc_start=False)
        assert _max_relative_error(dense, band) < PARITY_RTOL
        assert band.voltage("b")[0] == pytest.approx(0.0)

    def test_sparse_default_for_large_circuit(self, monkeypatch):
        """A large circuit runs as a one-job band stack by default."""
        layouts = []
        run = batched._Batch.run

        def recorded(self, *args):
            layouts.append(self.band)
            return run(self, *args)

        monkeypatch.setattr(batched._Batch, "run", recorded)
        circuit = _rc_ladder_circuit(n_segments=80)
        assert MNAAssembler(circuit).size >= BAND_SIZE_THRESHOLD
        auto = transient_analysis(circuit, 4e-10, 4e-12)
        assert len(layouts) == 1 and layouts[0] is not None
        dense = dense_transient_analysis(circuit, 4e-10, 4e-12)
        assert _max_relative_error(dense, auto) < PARITY_RTOL
