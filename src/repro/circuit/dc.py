"""DC operating-point analysis.

Capacitors are opened, inductors are shorted (zero-volt branches), sources
are evaluated at a given time (default 0) and the nonlinear system is
solved by Newton iteration.  The result seeds transient analyses so that
simulations start from a consistent bias point.

The solve is :func:`~repro.circuit.mna.newton_solve`, in band storage from
:data:`~repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit import mna
from repro.circuit.mna import MNAAssembler, newton_solve
from repro.circuit.netlist import Circuit


@dataclass(frozen=True)
class DCResult:
    """Result of a DC operating-point analysis.

    Attributes
    ----------
    node_voltages:
        Mapping from node name to voltage in volt (ground excluded).
    source_currents:
        Mapping from voltage-source name to branch current in ampere.
    """

    node_voltages: dict[str, float]
    source_currents: dict[str, float]

    def voltage(self, node: str) -> float:
        """Voltage of a node (0 for ground)."""
        if node in self.node_voltages:
            return self.node_voltages[node]
        from repro.circuit.netlist import is_ground

        if is_ground(node):
            return 0.0
        raise KeyError(f"unknown node {node!r}")

    def current(self, source_name: str) -> float:
        """Branch current of a voltage source in ampere."""
        return self.source_currents[source_name]


def dc_operating_point(
    circuit: Circuit,
    time: float = 0.0,
) -> DCResult:
    """Solve the DC operating point of a circuit.

    Parameters
    ----------
    circuit:
        The circuit to solve.
    time:
        Time at which source waveforms are evaluated (waveform-driven inputs
        take their ``t = time`` value as a DC level).

    Newton runs up to :data:`~repro.circuit.mna.DC_NEWTON_ITERATIONS`
    iterations with the shared damping and convergence constants of
    :mod:`repro.circuit.mna`.

    Returns
    -------
    DCResult
    """
    assembler = MNAAssembler(circuit)
    if assembler.size == 0:
        return DCResult(node_voltages={}, source_currents={})

    guess = np.zeros(assembler.dc_size)
    # A supply-aware starting guess speeds up and stabilises CMOS circuits:
    # start every node halfway to the largest DC source magnitude.
    supply_levels = [abs(v.value(time)) for v in circuit.voltage_sources]
    if supply_levels:
        guess[: assembler.n_nodes] = 0.5 * max(supply_levels)

    solution = newton_solve(
        assembler,
        time,
        guess,
        capacitors_open=True,
        max_iterations=mna.DC_NEWTON_ITERATIONS,
    )

    node_voltages = {
        name: float(solution[assembler.node_index(name)]) for name in assembler.node_names
    }
    source_currents = {
        source.name: float(solution[assembler.vsource_index(position)])
        for position, source in enumerate(circuit.voltage_sources)
    }
    return DCResult(node_voltages=node_voltages, source_currents=source_currents)
