"""Dense reference circuit analyses: the oracle of the band layout.

These are the scalar dense transient and DC analyses as they stood before
large circuits moved to band storage: :meth:`MNAAssembler.assemble` plus
``np.linalg.solve`` at every Newton iteration, at any size.  (The DC
analysis sizes its guess by ``dc_size``, since a DC inductor is a zero-volt
branch.)  Below :data:`repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns
they are the library path bit for bit; above it the library solves in band
storage and the tests hold it to these analyses within 1e-9.
``crosstalk_reference.py`` and the reference sides of
``benchmarks/perf/harness.py`` run on them.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.circuit.dc import DCResult
from repro.circuit.delay import (
    DelayMeasurement,
    _build_delay_benchmark,
    _measure_from_result,
    measure_inverter_line_delay,
)
from repro.circuit.mna import (
    DC_NEWTON_ITERATIONS,
    NEWTON_DAMPING_LIMIT,
    NEWTON_TOLERANCE,
    TRANSIENT_NEWTON_ITERATIONS,
    CompanionState,
    MNAAssembler,
)
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientResult, validate_transient_args
from repro.core import InterconnectLine


def dense_newton_solve(
    assembler: MNAAssembler,
    time: float,
    initial_guess: np.ndarray,
    state: CompanionState | None = None,
    dt: float | None = None,
    method: str = "trapezoidal",
    capacitors_open: bool = False,
    max_iterations: int = TRANSIENT_NEWTON_ITERATIONS,
) -> np.ndarray:
    """Newton-Raphson solve with a dense ``np.linalg.solve`` per iteration."""
    solution = initial_guess.astype(float).copy()
    nonlinear = bool(assembler.circuit.mosfets)

    for _ in range(max_iterations):
        matrix, rhs = assembler.assemble(
            time, solution, state=state, dt=dt, method=method, capacitors_open=capacitors_open
        )
        try:
            new_solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as error:
            raise RuntimeError(f"singular MNA matrix at t={time}: {error}") from error

        if not nonlinear:
            # Linear circuits are solved exactly in one step; damping would
            # only distort the solution.
            return new_solution

        delta = new_solution - solution
        max_delta = float(np.max(np.abs(delta))) if delta.size else 0.0
        if max_delta > NEWTON_DAMPING_LIMIT:
            delta *= NEWTON_DAMPING_LIMIT / max_delta
            solution = solution + delta
        else:
            solution = new_solution

        if max_delta < NEWTON_TOLERANCE:
            return solution

    raise RuntimeError(
        f"Newton iteration did not converge at t={time} after {max_iterations} iterations"
    )


def dense_dc_operating_point(circuit: Circuit, time: float = 0.0) -> DCResult:
    """DC operating point through :func:`dense_newton_solve`."""
    assembler = MNAAssembler(circuit)
    if assembler.size == 0:
        return DCResult(node_voltages={}, source_currents={})

    guess = np.zeros(assembler.dc_size)
    # A supply-aware starting guess speeds up and stabilises CMOS circuits:
    # start every node halfway to the largest DC source magnitude.
    supply_levels = [abs(v.value(time)) for v in circuit.voltage_sources]
    if supply_levels:
        guess[: assembler.n_nodes] = 0.5 * max(supply_levels)

    solution = dense_newton_solve(
        assembler,
        time,
        guess,
        capacitors_open=True,
        max_iterations=DC_NEWTON_ITERATIONS,
    )

    node_voltages = {
        name: float(solution[assembler.node_index(name)]) for name in assembler.node_names
    }
    source_currents = {
        source.name: float(solution[assembler.vsource_index(position)])
        for position, source in enumerate(circuit.voltage_sources)
    }
    return DCResult(node_voltages=node_voltages, source_currents=source_currents)


def dense_transient_analysis(
    circuit: Circuit,
    stop_time: float,
    time_step: float,
    method: str = "trapezoidal",
    use_dc_start: bool = True,
) -> TransientResult:
    """Fixed-step transient: dense assembly and solve at every step."""
    validate_transient_args(stop_time, time_step, method)

    assembler = MNAAssembler(circuit)
    n_steps = int(round(stop_time / time_step))
    times = np.linspace(0.0, n_steps * time_step, n_steps + 1)

    solution = np.zeros(assembler.size)
    state = CompanionState.initial(circuit)

    if use_dc_start and assembler.size > 0:
        dc = dense_dc_operating_point(circuit, time=0.0)
        for name, voltage in dc.node_voltages.items():
            solution[assembler.node_index(name)] = voltage
        for position, source in enumerate(circuit.voltage_sources):
            solution[assembler.vsource_index(position)] = dc.source_currents[source.name]
        # Capacitors start charged to their DC voltages.
        state = CompanionState(
            capacitor_voltages={
                c.name: dc.voltage(c.a) - dc.voltage(c.b) for c in circuit.capacitors
            },
            capacitor_currents={c.name: 0.0 for c in circuit.capacitors},
            inductor_currents={l.name: 0.0 for l in circuit.inductors},
            inductor_voltages={l.name: 0.0 for l in circuit.inductors},
        )

    trace = np.empty((n_steps + 1, assembler.size))
    trace[0] = solution
    for step in range(1, n_steps + 1):
        solution = dense_newton_solve(
            assembler, times[step], solution, state=state, dt=time_step, method=method
        )
        state = assembler.update_state(solution, state, time_step, method=method)
        trace[step] = solution

    voltages = {
        name: np.ascontiguousarray(trace[:, assembler.node_index(name)])
        for name in assembler.node_names
    }
    currents = {
        source.name: np.ascontiguousarray(trace[:, assembler.vsource_index(position)])
        for position, source in enumerate(circuit.voltage_sources)
    }
    return TransientResult(times=times, node_voltages=voltages, source_currents=currents)


def dense_inverter_line_delay(line: InterconnectLine, n_time_steps: int) -> DelayMeasurement:
    """:func:`~repro.circuit.delay.measure_inverter_line_delay` at its
    default settings, with the transient run by :func:`dense_transient_analysis`."""
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(measure_inverter_line_delay).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    circuit, stop_time, time_step, v_dd = _build_delay_benchmark(
        line,
        technology=defaults["technology"],
        driver_size=defaults["driver_size"],
        receiver_size=defaults["receiver_size"],
        input_rise_time=defaults["input_rise_time"],
        rising_input=defaults["rising_input"],
        simulation_margin=defaults["simulation_margin"],
        n_time_steps=n_time_steps,
    )
    result = dense_transient_analysis(circuit, stop_time, time_step, method=defaults["method"])
    return _measure_from_result(result, v_dd)
