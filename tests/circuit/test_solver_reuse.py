"""Newton factorization reuse: freeze-mode parity, refresh triggers, stats.

The freeze policy (``SolverOptions(newton="freeze")``) reuses one numeric LU
across Newton iterations and steps and may only ever change *how fast* a
step converges, never *where* it converges to: its fixed point satisfies
``A(x) x = b(x)`` exactly.  These tests pin that contract against the dense
reference solver (:func:`repro.circuit.mna.newton_solve`), exercise the
refresh triggers on a pathologically conditioned switching circuit, and
assert the factorization economics the mode exists for.
"""

import numpy as np
import pytest

from repro.circuit import Circuit, Step, transient_analysis
from repro.circuit.compiled import (
    ArrayState,
    CompiledMNA,
    SolverOptions,
    resolve_solver_options,
    solver_backend,
    solver_options,
)
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import CompanionState, MNAAssembler, newton_solve
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC

PARITY_RTOL = 1.0e-9

FREEZE = SolverOptions(newton="freeze")


def _inverter_line_circuit(n_segments: int = 12, contact_resistance: float = 1e-3) -> Circuit:
    """Inverter -> RC ladder -> inverter; the nonlinear Newton workload.

    The default contact resistance of 1 milliohm next to a 20 kiloohm ladder
    puts ~7 orders of magnitude of conductance spread into the MNA matrix --
    the near-singular conditioning that makes a stale frozen Jacobian stall
    during the output transition and forces refreshes.
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


def _run_frozen_against_dense(circuit: Circuit, options: SolverOptions, n_steps: int = 300):
    """Step the compiled freeze-mode solver and the dense reference in
    lockstep; returns (compiled system, worst absolute voltage difference)."""
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
        solution = compiled.solve_step(t, solution, state, options=options)
        state = compiled.update_state(solution, state)
        dense_solution = newton_solve(assembler, t, dense_solution, state=dense_state, dt=dt)
        dense_state = assembler.update_state(dense_solution, dense_state, dt)
        worst = max(worst, float(np.max(np.abs(solution - dense_solution))))
    return compiled, worst


class TestFreezeParity:
    def test_matches_dense_newton_solve_per_step(self):
        """Lockstep freeze vs dense ``newton_solve``: every step <= 1e-9."""
        compiled, worst = _run_frozen_against_dense(_inverter_line_circuit(), FREEZE)
        assert worst < PARITY_RTOL
        assert compiled.stats.steps == 300

    def test_refresh_triggers_on_near_singular_switching(self):
        """The pathological case must actually exercise the refresh path."""
        compiled, worst = _run_frozen_against_dense(_inverter_line_circuit(), FREEZE)
        assert compiled.stats.refreshes >= 1
        assert worst < PARITY_RTOL

    def test_fewer_factorizations_than_exact(self):
        """The mode's reason to exist: reuse must slash factorizations."""
        frozen, _ = _run_frozen_against_dense(_inverter_line_circuit(), FREEZE)
        exact, _ = _run_frozen_against_dense(_inverter_line_circuit(), SolverOptions())
        assert exact.stats.factorizations == exact.stats.iterations
        assert frozen.stats.factorizations < exact.stats.factorizations / 2

    def test_tight_iteration_budget_still_converges(self):
        """``max_frozen_iterations=1`` degenerates toward exact Newton (a
        refresh nearly every hard step) but must stay exactly as correct."""
        options = SolverOptions(newton="freeze", max_frozen_iterations=1)
        compiled, worst = _run_frozen_against_dense(_inverter_line_circuit(), options)
        assert worst < PARITY_RTOL
        assert compiled.stats.refreshes >= 1

    def test_transient_waveforms_match_exact(self):
        """Whole-transient parity through the public entry point.

        Same sparse backend with and without freezing, so any difference is
        attributable to the reuse policy alone (the dense cross-backend
        anchor is the lockstep test above).  Each step converges to the
        shared 1e-9 Newton tolerance, and the companion state integrates
        that slack over 300 steps, so the open-loop waveform bound is a
        small multiple of the per-step tolerance -- the strict <= 1e-9
        contract is per-step and lives in the lockstep tests.
        """
        circuit = _inverter_line_circuit()
        with solver_backend("sparse"):
            exact = transient_analysis(circuit, 3e-10, 1e-12)
            with solver_options(FREEZE):
                frozen = transient_analysis(circuit, 3e-10, 1e-12)
        scale = max(np.max(np.abs(w)) for w in exact.node_voltages.values())
        worst = max(
            float(np.max(np.abs(exact.voltage(node) - frozen.voltage(node))))
            for node in exact.node_voltages
        )
        assert worst / scale < 20 * PARITY_RTOL


class TestSolverOptions:
    def test_defaults_are_exact(self):
        assert resolve_solver_options(None).newton == "exact"

    def test_context_override(self):
        with solver_options(FREEZE):
            assert resolve_solver_options(None).newton == "freeze"
        assert resolve_solver_options(None).newton == "exact"

    def test_explicit_argument_beats_override(self):
        with solver_options(FREEZE):
            assert resolve_solver_options(SolverOptions()).newton == "exact"

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(newton="thaw")
        with pytest.raises(ValueError):
            SolverOptions(refresh_contraction=1.5)
        with pytest.raises(ValueError):
            SolverOptions(max_frozen_iterations=0)

    def test_linear_circuits_ignore_newton_policy(self):
        """A linear circuit has one factorization total, whatever the mode."""
        circuit = Circuit("rc")
        circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=1e-12))
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12)
        dt = 1e-12
        compiled = CompiledMNA(circuit, dt=dt)
        state = ArrayState.from_companion(CompanionState.initial(circuit), circuit)
        solution = np.zeros(compiled.size)
        for step in range(1, 50):
            solution = compiled.solve_step(step * dt, solution, state, options=FREEZE)
            state = compiled.update_state(solution, state)
        assert compiled.stats.factorizations == 1
        assert compiled.stats.refreshes == 0
