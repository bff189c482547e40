"""Transient analysis with trapezoidal or backward-Euler integration.

The solver marches the circuit from a consistent starting point (by default
the DC operating point at ``t = 0``) with a fixed time step, solving the
nonlinear MNA system by Newton iteration at every step.  Results are exposed
as numpy arrays per node, which is what the delay-measurement helpers of
:mod:`repro.circuit.delay` operate on.

Circuits below :data:`~repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns run
the scalar dense loop here (:meth:`~repro.circuit.mna.MNAAssembler.assemble`
plus :func:`~repro.circuit.mna.newton_solve` per step); larger ones run as a
one-job band stack of :mod:`repro.circuit.batched`.  Both record every step
into one ``(n_steps + 1, size)`` trace array and cut the per-node waveforms
from it once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit import mna
from repro.circuit.dc import dc_operating_point
from repro.circuit.mna import CompanionState, MNAAssembler, newton_solve, uses_band
from repro.circuit.netlist import Circuit, is_ground
from repro.obs.trace import trace_span


@dataclass(frozen=True)
class TransientResult:
    """Waveforms produced by a transient analysis.

    Attributes
    ----------
    times:
        1-D array of time points in second.
    node_voltages:
        Mapping from node name to a 1-D voltage array (same length as
        ``times``).
    source_currents:
        Mapping from voltage-source name to a 1-D branch-current array.
    """

    times: np.ndarray
    node_voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of a node (zeros for ground)."""
        if node in self.node_voltages:
            return self.node_voltages[node]
        if is_ground(node):
            return np.zeros_like(self.times)
        raise KeyError(f"unknown node {node!r}")

    def current(self, source_name: str) -> np.ndarray:
        """Branch-current waveform of a voltage source."""
        return self.source_currents[source_name]

    def final_voltage(self, node: str) -> float:
        """Last computed voltage of a node in volt."""
        return float(self.voltage(node)[-1])

    @property
    def n_points(self) -> int:
        """Number of stored time points."""
        return int(self.times.size)

    @classmethod
    def from_trace(
        cls, assembler: MNAAssembler, times: np.ndarray, trace: np.ndarray
    ) -> "TransientResult":
        """Waveforms cut from a ``(n_steps + 1, size)`` solution trace."""
        return cls(
            times=times,
            node_voltages={
                name: np.ascontiguousarray(trace[:, assembler.node_index(name)])
                for name in assembler.node_names
            },
            source_currents={
                source.name: np.ascontiguousarray(trace[:, assembler.vsource_index(position)])
                for position, source in enumerate(assembler.circuit.voltage_sources)
            },
        )


def dc_start(assembler: MNAAssembler) -> np.ndarray:
    """The ``t = 0`` DC operating point as an MNA solution vector."""
    circuit = assembler.circuit
    dc = dc_operating_point(circuit, time=0.0)
    solution = np.zeros(assembler.size)
    for name, voltage in dc.node_voltages.items():
        solution[assembler.node_index(name)] = voltage
    for position, source in enumerate(circuit.voltage_sources):
        solution[assembler.vsource_index(position)] = dc.source_currents[source.name]
    return solution


def validate_transient_args(stop_time: float, time_step: float, method: str) -> None:
    """Argument checks shared by the serial and the batched transient."""
    if stop_time <= 0 or time_step <= 0:
        raise ValueError("stop time and time step must be positive")
    if time_step > stop_time:
        raise ValueError("time step cannot exceed the stop time")
    if method not in ("trapezoidal", "backward_euler"):
        raise ValueError(f"unknown integration method {method!r}")


def transient_analysis(
    circuit: Circuit,
    stop_time: float,
    time_step: float,
    method: str = "trapezoidal",
    use_dc_start: bool = True,
) -> TransientResult:
    """Run a fixed-step transient analysis.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    stop_time:
        Final simulation time in second.
    time_step:
        Fixed step size in second.
    method:
        ``"trapezoidal"`` (default) or ``"backward_euler"``.
    use_dc_start:
        When True the initial condition is the DC operating point with the
        sources at their ``t = 0`` values; when False all node voltages start
        at 0 V and capacitor initial voltages are honoured.

    Circuits of :data:`~repro.circuit.mna.BAND_SIZE_THRESHOLD` or more
    unknowns run as a one-job band stack.  Both paths run the same Newton
    iteration, capped at :data:`~repro.circuit.mna.TRANSIENT_NEWTON_ITERATIONS`
    per step.

    Returns
    -------
    TransientResult
    """
    validate_transient_args(stop_time, time_step, method)

    assembler = MNAAssembler(circuit)
    n_steps = int(round(stop_time / time_step))
    if uses_band(assembler.size):
        from repro.circuit.batched import TransientJob, _Batch

        job = TransientJob(circuit, stop_time, time_step, method, use_dc_start)
        with trace_span(
            "circuit.transient", backend="band", size=assembler.size, n_steps=n_steps
        ):
            return _Batch([job]).run()[0]

    times = np.linspace(0.0, n_steps * time_step, n_steps + 1)

    solution = np.zeros(assembler.size)
    state = CompanionState.initial(circuit)

    if use_dc_start and assembler.size > 0:
        solution = dc_start(assembler)
        voltage = assembler.node_voltage
        # Capacitors start charged to their DC voltages, inductors at rest.
        state.capacitor_voltages = {
            c.name: voltage(solution, c.a) - voltage(solution, c.b) for c in circuit.capacitors
        }
        state.inductor_currents = {l.name: 0.0 for l in circuit.inductors}

    trace = np.empty((n_steps + 1, assembler.size))
    trace[0] = solution

    with trace_span(
        "circuit.transient", backend="dense", size=assembler.size, n_steps=n_steps
    ):
        for step in range(1, n_steps + 1):
            time = times[step]
            solution = newton_solve(
                assembler,
                time,
                solution,
                state=state,
                dt=time_step,
                method=method,
                max_iterations=mna.TRANSIENT_NEWTON_ITERATIONS,
            )
            state = assembler.update_state(solution, state, time_step, method=method)
            trace[step] = solution

    return TransientResult.from_trace(assembler, times, trace)
