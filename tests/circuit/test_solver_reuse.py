"""Compiled sparse Newton: per-step parity with the dense reference, stats.

The compiled solver refactorizes every Newton iteration of a nonlinear
circuit and factorizes a linear circuit once for the whole analysis.  These
tests pin both against the dense reference solver
(:func:`repro.circuit.mna.newton_solve`) on a pathologically conditioned
switching circuit, and assert the factorization counts that follow.
"""

import numpy as np

from repro.circuit import Circuit, Step, transient_analysis
from repro.circuit.compiled import ArrayState, CompiledMNA, solver_backend
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import CompanionState, MNAAssembler, newton_solve
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC

PARITY_RTOL = 1.0e-9


def _inverter_line_circuit(n_segments: int = 12, contact_resistance: float = 1e-3) -> Circuit:
    """Inverter -> RC ladder -> inverter; the nonlinear Newton workload.

    The default contact resistance of 1 milliohm next to a 20 kiloohm ladder
    puts ~7 orders of magnitude of conductance spread into the MNA matrix --
    near-singular conditioning during the output transition.
    """
    circuit = Circuit("inverter line")
    add_supply(circuit, NODE_45NM)
    v_dd = NODE_45NM.supply_voltage
    circuit.add_voltage_source(
        "vin", "in", "0", Step(0.0, v_dd, delay=2e-12, rise_time=4e-12)
    )
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    ladder = DistributedRC(
        total_resistance=2e4,
        total_capacitance=5e-14,
        contact_resistance=contact_resistance,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="line")
    Inverter("rcv", "far", "out", technology=NODE_45NM).add_to(circuit)
    circuit.add_capacitor("cl", "out", "0", 2e-15)
    return circuit


def _run_compiled_against_dense(circuit: Circuit, n_steps: int = 300):
    """Step the compiled solver and the dense reference in lockstep;
    returns (compiled system, worst absolute voltage difference)."""
    dt = 1e-12
    compiled = CompiledMNA(circuit, dt=dt)
    assembler = MNAAssembler(circuit)
    state = ArrayState.from_companion(CompanionState.initial(circuit), circuit)
    dense_state = CompanionState.initial(circuit)
    solution = np.zeros(compiled.size)
    dense_solution = np.zeros(assembler.size)
    worst = 0.0
    for step in range(1, n_steps + 1):
        t = step * dt
        solution = compiled.solve_step(t, solution, state)
        state = compiled.update_state(solution, state)
        dense_solution = newton_solve(assembler, t, dense_solution, state=dense_state, dt=dt)
        dense_state = assembler.update_state(dense_solution, dense_state, dt)
        worst = max(worst, float(np.max(np.abs(solution - dense_solution))))
    return compiled, worst


class TestSparseNewtonParity:
    def test_matches_dense_newton_solve_per_step(self):
        """Lockstep sparse vs dense ``newton_solve``: every step <= 1e-9,
        with one factorization per Newton iteration."""
        compiled, worst = _run_compiled_against_dense(_inverter_line_circuit())
        assert worst < PARITY_RTOL
        assert compiled.stats.steps == 300
        assert compiled.stats.factorizations == compiled.stats.iterations

    def test_transient_waveforms_match_dense(self):
        """Whole-transient parity through the public entry point.

        Each step converges to the shared 1e-9 Newton tolerance, and the
        companion state integrates that slack over 300 steps, so the
        open-loop waveform bound is a small multiple of the per-step
        tolerance -- the strict <= 1e-9 contract is per-step and lives in
        the lockstep test above.
        """
        circuit = _inverter_line_circuit()
        with solver_backend("dense"):
            dense = transient_analysis(circuit, 3e-10, 1e-12)
        with solver_backend("sparse"):
            sparse = transient_analysis(circuit, 3e-10, 1e-12)
        scale = max(np.max(np.abs(w)) for w in dense.node_voltages.values())
        worst = max(
            float(np.max(np.abs(dense.voltage(node) - sparse.voltage(node))))
            for node in dense.node_voltages
        )
        assert worst / scale < 20 * PARITY_RTOL


class TestFactorizationReuse:
    def test_linear_circuit_factorizes_once(self):
        """A linear circuit has one factorization for the whole analysis."""
        circuit = Circuit("rc")
        circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=1e-12))
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12)
        dt = 1e-12
        compiled = CompiledMNA(circuit, dt=dt)
        state = ArrayState.from_companion(CompanionState.initial(circuit), circuit)
        solution = np.zeros(compiled.size)
        for step in range(1, 50):
            solution = compiled.solve_step(step * dt, solution, state)
            state = compiled.update_state(solution, state)
        assert compiled.stats.factorizations == 1
        assert compiled.stats.steps == 49
