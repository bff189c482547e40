"""Compiled sparse MNA: structure, parity and backend-selection tests.

The compiled path must be a drop-in replacement for the dense assembler:
identical matrices/rhs for identical inputs, identical waveforms from
``transient_analysis`` regardless of backend, and a well-defined size
threshold with a test override.  Tests pick a backend with the
``solver_backend`` context manager; no entry point takes it per call.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    SPARSE_SIZE_THRESHOLD,
    Step,
    resolve_backend,
    solver_backend,
    transient_analysis,
)
from repro.circuit.compiled import ArrayState, CompiledMNA
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import CompanionState, MNAAssembler
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC

PARITY_RTOL = 1.0e-9


def _transient(backend: str, *args, **kwargs):
    """``transient_analysis`` with every solve forced onto ``backend``."""
    with solver_backend(backend):
        return transient_analysis(*args, **kwargs)


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
        assert resolve_backend(SPARSE_SIZE_THRESHOLD - 1) == "dense"

    def test_large_circuits_go_sparse(self):
        assert resolve_backend(SPARSE_SIZE_THRESHOLD) == "sparse"

    def test_explicit_argument_wins(self):
        with solver_backend("sparse"):
            assert resolve_backend(2) == "sparse"
        with solver_backend("dense"):
            assert resolve_backend(10_000) == "dense"

    def test_override_context(self):
        with solver_backend("sparse"):
            assert resolve_backend(2) == "sparse"
            with solver_backend("dense"):
                assert resolve_backend(10_000) == "dense"
            assert resolve_backend(2) == "sparse"
        assert resolve_backend(2) == "dense"

    def test_no_per_call_solver_knobs(self):
        """``solver_backend`` is the only way to pick a solver: no other
        public function, class or method of ``repro.circuit`` takes a
        backend, a Newton policy or a Newton tuning argument."""
        import repro.circuit
        from repro.circuit import compiled

        knobs = {
            "backend",
            "solver_opts",
            "options",
            "tolerance",
            "damping_limit",
            "max_newton_iterations",
        }
        overrides = {"solver_backend"}
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
        solver_names = {
            name for name in dir(compiled) if "solver" in name.lower() and not name.startswith("_")
        }
        assert solver_names == overrides | {"SolverStats"}
        with pytest.raises(TypeError):
            resolve_backend(2, "sparse")  # type: ignore[call-arg]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            with solver_backend("magic"):
                pass  # pragma: no cover


class TestCompiledAssembly:
    """The compiled system must match the dense assembler entry for entry."""

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    @pytest.mark.parametrize(
        "builder", [_rc_ladder_circuit, _rlc_circuit, _inverter_line_circuit]
    )
    def test_matrix_and_rhs_match_dense(self, builder, method):
        circuit = builder()
        dt = 1e-12
        assembler = MNAAssembler(circuit)
        compiled = CompiledMNA(circuit, dt=dt, method=method)

        rng = np.random.default_rng(7)
        guess = rng.normal(scale=0.4, size=assembler.size)
        state = CompanionState.initial(circuit)
        dense_matrix, dense_rhs = assembler.assemble(
            3e-12, guess, state=state, dt=dt, method=method
        )
        sparse_matrix, sparse_rhs = compiled.assemble(
            3e-12, guess, ArrayState.from_companion(state, circuit)
        )
        np.testing.assert_allclose(
            sparse_matrix.toarray(), dense_matrix, rtol=1e-13, atol=1e-30
        )
        np.testing.assert_allclose(sparse_rhs, dense_rhs, rtol=1e-13, atol=1e-30)

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_update_state_matches_dense(self, method):
        circuit = _rlc_circuit()
        dt = 2e-12
        assembler = MNAAssembler(circuit)
        compiled = CompiledMNA(circuit, dt=dt, method=method)
        rng = np.random.default_rng(11)
        solution = rng.normal(size=assembler.size)

        state = CompanionState.initial(circuit)
        dense_next = assembler.update_state(solution, state, dt, method=method)
        array_next = compiled.update_state(
            solution, ArrayState.from_companion(state, circuit)
        ).to_companion(circuit)
        for name, value in dense_next.capacitor_voltages.items():
            assert array_next.capacitor_voltages[name] == pytest.approx(value, rel=1e-13)
        for name, value in dense_next.capacitor_currents.items():
            assert array_next.capacitor_currents[name] == pytest.approx(value, rel=1e-13)
        for name, value in dense_next.inductor_currents.items():
            assert array_next.inductor_currents[name] == pytest.approx(value, rel=1e-13)
        for name, value in dense_next.inductor_voltages.items():
            assert array_next.inductor_voltages[name] == pytest.approx(value, rel=1e-13)

    def test_validation(self):
        circuit = _rc_ladder_circuit(4)
        with pytest.raises(ValueError):
            CompiledMNA(circuit, dt=1e-12, method="euler")
        with pytest.raises(ValueError):
            CompiledMNA(circuit, dt=0.0)


class TestTransientParity:
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_linear_ladder_waveforms_match(self, method):
        circuit = _rc_ladder_circuit()
        dense = _transient("dense", circuit, 1e-9, 4e-12, method=method)
        sparse = _transient("sparse", circuit, 1e-9, 4e-12, method=method)
        assert _max_relative_error(dense, sparse) < PARITY_RTOL
        for source in ("vin",):
            np.testing.assert_allclose(
                dense.current(source), sparse.current(source), rtol=1e-9, atol=1e-15
            )

    def test_rlc_waveforms_match(self):
        circuit = _rlc_circuit()
        dense = _transient("dense", circuit, 2e-10, 5e-13)
        sparse = _transient("sparse", circuit, 2e-10, 5e-13)
        assert _max_relative_error(dense, sparse) < PARITY_RTOL

    def test_nonlinear_waveforms_match(self):
        circuit = _inverter_line_circuit()
        dense = _transient("dense", circuit, 3e-10, 1e-12)
        sparse = _transient("sparse", circuit, 3e-10, 1e-12)
        assert _max_relative_error(dense, sparse) < PARITY_RTOL

    def test_no_dc_start_honours_initial_conditions(self):
        circuit = Circuit("ic")
        circuit.add_voltage_source("vin", "a", "0", 1.0)
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12, initial_voltage=0.25)
        dense = _transient("dense", circuit, 1e-9, 2e-12, use_dc_start=False)
        sparse = _transient("sparse", circuit, 1e-9, 2e-12, use_dc_start=False)
        assert _max_relative_error(dense, sparse) < PARITY_RTOL
        assert sparse.voltage("b")[0] == pytest.approx(0.0)

    def test_sparse_default_for_large_circuit(self):
        """Auto-selection must route big circuits through the sparse path."""
        circuit = _rc_ladder_circuit(n_segments=80)
        assert MNAAssembler(circuit).size >= SPARSE_SIZE_THRESHOLD
        auto = transient_analysis(circuit, 4e-10, 4e-12)
        forced = _transient("sparse", circuit, 4e-10, 4e-12)
        assert _max_relative_error(auto, forced) == 0.0
