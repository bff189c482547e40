"""Transient analysis with trapezoidal or backward-Euler integration.

The solver marches the circuit from a consistent starting point (by default
the DC operating point at ``t = 0``) with a fixed time step, solving the
nonlinear MNA system by Newton iteration at every step.  Results are exposed
as numpy arrays per node, which is what the delay-measurement helpers of
:mod:`repro.circuit.delay` operate on.

:func:`transient_analysis` runs its circuit as a one-job stack of the
stacked kernel (:mod:`repro.circuit.batched`), at every size.  The kernel
records every step into one solution trace and cuts the per-node waveforms
from it once at the end (:meth:`TransientResult.from_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.mna import MNAAssembler, uses_band
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


def validate_transient_args(stop_time: float, time_step: float, method: str) -> None:
    """Argument checks of a transient job."""
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

    The circuit runs as a one-job stack of :mod:`repro.circuit.batched`,
    with Newton capped at :data:`~repro.circuit.mna.TRANSIENT_NEWTON_ITERATIONS`
    iterations per step.

    Returns
    -------
    TransientResult
    """
    from repro.circuit.batched import TransientJob, _run_stack

    validate_transient_args(stop_time, time_step, method)
    size = MNAAssembler(circuit).size
    n_steps = int(round(stop_time / time_step))
    backend = "band" if uses_band(size) else "dense"
    with trace_span("circuit.transient", backend=backend, size=size, n_steps=n_steps):
        return _run_stack([TransientJob(circuit, stop_time, time_step, method, use_dc_start)])[0]
