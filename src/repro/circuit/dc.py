"""DC operating-point analysis.

Capacitors are opened, inductors are shorted (zero-volt branches), sources
are evaluated at a given time (default 0) and the nonlinear system is
solved by Newton iteration.  The result seeds transient analyses so that
simulations start from a consistent bias point.

The solve is a one-job DC stack of the stacked kernel
(:meth:`repro.circuit.batched._Batch.dc`), in band storage from
:data:`~repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.batched import _Batch
from repro.circuit.mna import MNAAssembler
from repro.circuit.netlist import Circuit, is_ground


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

    Newton starts every node halfway to the largest source magnitude and
    runs up to :data:`~repro.circuit.mna.DC_NEWTON_ITERATIONS` iterations
    with the shared damping and convergence constants of
    :mod:`repro.circuit.mna`.

    Returns
    -------
    DCResult
    """
    assembler = MNAAssembler(circuit)
    if assembler.size == 0:
        return DCResult(node_voltages={}, source_currents={})
    solution = _Batch([circuit]).dc(time)[0]

    node_voltages = {
        name: float(solution[assembler.node_index(name)]) for name in assembler.node_names
    }
    source_currents = {
        source.name: float(solution[assembler.vsource_index(position)])
        for position, source in enumerate(circuit.voltage_sources)
    }
    return DCResult(node_voltages=node_voltages, source_currents=source_currents)
