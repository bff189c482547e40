"""DC operating point through the compiled sparse path (backend routing).

Tests pick a backend with the ``solver_backend`` context manager; no entry
point takes it per call.
"""

import numpy as np
import pytest

from repro.circuit import (
    SPARSE_SIZE_THRESHOLD,
    Circuit,
    CompiledMNA,
    dc_operating_point,
    solver_backend,
)
from repro.circuit.compiled import ArrayState
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import MNAAssembler
from repro.circuit.rcline import add_rc_ladder
from repro.core.line import DistributedRC


def _large_ladder(n_segments: int = 120) -> Circuit:
    circuit = Circuit("dc ladder")
    circuit.add_voltage_source("vin", "a", "0", 1.0)
    circuit.add_resistor("rdrv", "a", "n0", 1.0e3)
    ladder = DistributedRC(
        total_resistance=5.0e4,
        total_capacitance=2.0e-13,
        contact_resistance=6.0e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "n0", "far", name_prefix="dut")
    circuit.add_capacitor("cl", "far", "0", 5.0e-15)
    circuit.add_resistor("rload", "far", "0", 1.0e6)
    return circuit


def _nonlinear_line(n_segments: int = 100) -> Circuit:
    circuit = Circuit("dc inverter line")
    add_supply(circuit)
    circuit.add_voltage_source("vin", "in", "0", 0.4)
    Inverter("drv", "in", "near").add_to(circuit)
    ladder = DistributedRC(
        total_resistance=5.0e4,
        total_capacitance=2.0e-13,
        contact_resistance=6.0e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="dut")
    Inverter("rcv", "far", "out").add_to(circuit)
    return circuit


def _dc(backend: str, circuit: Circuit):
    """``dc_operating_point`` forced onto ``backend``."""
    with solver_backend(backend):
        return dc_operating_point(circuit)


def _worst_delta(a, b) -> float:
    node = max(abs(a.node_voltages[n] - b.node_voltages[n]) for n in a.node_voltages)
    current = max(abs(a.source_currents[s] - b.source_currents[s]) for s in a.source_currents)
    return max(node, current)


class TestDCParity:
    def test_large_linear_ladder(self):
        circuit = _large_ladder()
        assert MNAAssembler(circuit).size >= SPARSE_SIZE_THRESHOLD
        dense = _dc("dense", circuit)
        sparse = _dc("sparse", circuit)
        assert _worst_delta(dense, sparse) <= 1.0e-9
        # Sanity: the ladder actually divides the supply.
        assert 0.9 < sparse.voltage("far") < 1.0

    def test_large_nonlinear_line(self):
        circuit = _nonlinear_line()
        assert MNAAssembler(circuit).size >= SPARSE_SIZE_THRESHOLD
        dense = _dc("dense", circuit)
        sparse = _dc("sparse", circuit)
        assert _worst_delta(dense, sparse) <= 1.0e-9

    def test_auto_routing_follows_threshold(self):
        """Auto selection equals the explicit backend on both sides of the
        threshold (small circuits keep dense, large ones go sparse)."""
        large = _large_ladder()
        auto = dc_operating_point(large)
        sparse = _dc("sparse", large)
        assert _worst_delta(auto, sparse) == 0.0

        small = Circuit("divider")
        small.add_voltage_source("v1", "a", "0", 2.0)
        small.add_resistor("r1", "a", "b", 1.0e3)
        small.add_resistor("r2", "b", "0", 1.0e3)
        assert MNAAssembler(small).size < SPARSE_SIZE_THRESHOLD
        auto_small = dc_operating_point(small)
        dense_small = _dc("dense", small)
        assert _worst_delta(auto_small, dense_small) == 0.0
        assert auto_small.voltage("b") == pytest.approx(1.0, rel=1e-9)

    def test_solver_backend_override_applies(self):
        """The global override used by parity harnesses reaches the DC solve."""
        circuit = _large_ladder()
        with solver_backend("dense"):
            dense = dc_operating_point(circuit)
        with solver_backend("sparse"):
            sparse = dc_operating_point(circuit)
        assert _worst_delta(dense, sparse) <= 1.0e-9

    def test_small_circuit_explicit_sparse_works(self):
        small = Circuit("divider")
        small.add_voltage_source("v1", "a", "0", 2.0)
        small.add_resistor("r1", "a", "b", 1.0e3)
        small.add_resistor("r2", "b", "0", 1.0e3)
        sparse = _dc("sparse", small)
        assert sparse.voltage("b") == pytest.approx(1.0, rel=1e-9)


class TestDCCompiledSystem:
    def test_dc_compile_requires_no_dt(self):
        circuit = _large_ladder(n_segments=4)
        compiled = CompiledMNA(circuit, dt=None, capacitors_open=True)
        assert compiled.capacitors_open
        with pytest.raises(ValueError, match="positive dt"):
            CompiledMNA(circuit, dt=None)

    def test_update_state_is_transient_only(self):
        circuit = _large_ladder(n_segments=4)
        compiled = CompiledMNA(circuit, dt=None, capacitors_open=True)
        solution = compiled.solve_step(0.0, np.zeros(compiled.size), ArrayState.zeros(circuit))
        with pytest.raises(RuntimeError, match="companion models"):
            compiled.update_state(solution, ArrayState.zeros(circuit))

    def test_inductor_becomes_short_at_dc(self):
        circuit = Circuit("rl")
        circuit.add_voltage_source("v1", "a", "0", 1.0)
        circuit.add_resistor("r1", "a", "b", 1.0e3)
        circuit.add_inductor("l1", "b", "c", 1.0e-9)
        circuit.add_resistor("r2", "c", "0", 1.0e3)
        dense = _dc("dense", circuit)
        sparse = _dc("sparse", circuit)
        assert _worst_delta(dense, sparse) <= 1.0e-9
        assert sparse.voltage("b") == pytest.approx(sparse.voltage("c"), abs=1e-6)
